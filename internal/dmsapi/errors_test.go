package dmsapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestEnvelopeRoundTrip pins the wire contract the router tier relies
// on: WriteStatusError's envelope decodes back (via statusError, the
// client's decode path) into an identical *StatusError — status, code,
// message, and retryability all lossless, however many hops it crosses.
func TestEnvelopeRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		write error
		want  StatusError
	}{
		{
			name:  "409 not_fitted",
			write: errc(http.StatusConflict, CodeNotFitted, "clustering model not fitted"),
			want:  StatusError{Code: 409, ErrCode: CodeNotFitted, Message: "clustering model not fitted"},
		},
		{
			// errf derives both the code and retryability from the status.
			name:  "429 overloaded retryable",
			write: errf(http.StatusTooManyRequests, "queue full"),
			want:  StatusError{Code: 429, ErrCode: CodeOverloaded, Message: "queue full", Retryable: true},
		},
		{
			name:  "503 degraded retryable",
			write: &StatusError{Code: 503, ErrCode: CodeDegraded, Message: "all shards failed", Retryable: true},
			want:  StatusError{Code: 503, ErrCode: CodeDegraded, Message: "all shards failed", Retryable: true},
		},
		{
			// An empty code is filled from the status before it hits the wire.
			name:  "404 code derived from status",
			write: &StatusError{Code: 404, Message: "no such model"},
			want:  StatusError{Code: 404, ErrCode: CodeNotFound, Message: "no such model"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			WriteStatusError(rec, tc.write)
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("envelope content type %q", ct)
			}
			err := statusError(rec.Code, rec.Body.Bytes())
			var se *StatusError
			if !errors.As(err, &se) {
				t.Fatalf("decode produced %T", err)
			}
			if *se != tc.want {
				t.Fatalf("round trip changed the error:\n  wrote %+v\n  read  %+v", tc.want, *se)
			}
		})
	}
}

// TestWriteStatusErrorForwarding checks the router's forwarding path: a
// decoded shard *StatusError is re-written verbatim (even wrapped), and
// anything untyped collapses to 500/internal.
func TestWriteStatusErrorForwarding(t *testing.T) {
	orig := &StatusError{Code: 429, ErrCode: CodeOverloaded, Message: "shed", Retryable: true}
	rec := httptest.NewRecorder()
	WriteStatusError(rec, fmt.Errorf("shard 2: %w", orig))
	err := statusError(rec.Code, rec.Body.Bytes())
	var se *StatusError
	if !errors.As(err, &se) || *se != *orig {
		t.Fatalf("forwarded error mutated: %v", err)
	}

	rec = httptest.NewRecorder()
	WriteStatusError(rec, errors.New("disk on fire"))
	err = statusError(rec.Code, rec.Body.Bytes())
	if !errors.As(err, &se) || se.Code != 500 || se.ErrCode != CodeInternal || se.Retryable {
		t.Fatalf("untyped error not collapsed to 500/internal: %v", err)
	}
}

// TestStatusErrorPlainTextDecode checks the client degrades cleanly
// against answers that never passed through a handler: raw text bodies
// decode with code and retryability derived from the HTTP status — from a
// proxy, and from http.ServeMux itself, whose 405 for a known path under
// the wrong method is plain text on both tiers.
func TestStatusErrorPlainTextDecode(t *testing.T) {
	err := statusError(http.StatusServiceUnavailable, []byte("upstream connect error\n"))
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("raw decode produced %T", err)
	}
	if se.ErrCode != CodeUnavailable || se.Message != "upstream connect error" || !se.Retryable {
		t.Fatalf("raw body decode: %+v", se)
	}

	_, client := startServer(t, ServerConfig{})
	_, err = client.DoRaw(context.Background(), "DELETE", PathModels, nil)
	if !errors.As(err, &se) {
		t.Fatalf("DELETE %s: got %T (%v), want *StatusError", PathModels, err, err)
	}
	if se.Code != http.StatusMethodNotAllowed || se.ErrCode != codeForStatus(http.StatusMethodNotAllowed) ||
		se.Message == "" || se.Retryable {
		t.Fatalf("mux 405 decode: %+v", se)
	}
}

// TestStatusErrorSentinels checks errors.Is classification, including
// plain-text responses that only carry a status.
func TestStatusErrorSentinels(t *testing.T) {
	cases := []struct {
		err      *StatusError
		sentinel error
	}{
		{&StatusError{Code: 404, ErrCode: CodeNotFound}, ErrNotFound},
		{&StatusError{Code: 409, ErrCode: CodeNotFitted}, ErrNotFitted},
		{&StatusError{Code: 409, ErrCode: CodeConflict}, ErrDuplicateModel},
		{&StatusError{Code: 429, ErrCode: CodeOverloaded}, ErrOverloaded},
		{&StatusError{Code: 503, ErrCode: CodeUnavailable}, ErrUnavailable},
		{&StatusError{Code: 503, ErrCode: CodeDegraded}, ErrUnavailable},
		// Plain-text responses: status only, derived code.
		{&StatusError{Code: 404, ErrCode: CodeInternal}, ErrNotFound},
		{&StatusError{Code: 429, ErrCode: CodeInternal}, ErrOverloaded},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, tc.sentinel) {
			t.Errorf("%+v does not match %v", tc.err, tc.sentinel)
		}
	}
	if errors.Is(&StatusError{Code: 409, ErrCode: CodeNotFitted}, ErrDuplicateModel) {
		t.Error("not_fitted must not look like a duplicate-model conflict")
	}
}

// TestNewClientOptions covers the functional-option constructor: options
// compose over defaults.
func TestNewClientOptions(t *testing.T) {
	srv, _ := startServer(t, ServerConfig{})
	addr := srv.Addr()

	c, err := NewClient(addr,
		WithRetry(1, 5*time.Millisecond),
		WithTimeout(5*time.Second),
		WithPool(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}
