package dmsapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// ErrorCode is the machine-readable class of an API error, carried in the
// error envelope of every non-2xx /v1 response. Codes are coarser than
// HTTP statuses where statuses overload meanings (409 covers both "model
// ID taken" and "service not fitted") and stable across transport hops:
// a router forwarding a shard's error preserves the code verbatim.
type ErrorCode string

const (
	CodeBadRequest  ErrorCode = "bad_request" // malformed input (400)
	CodeNotFound    ErrorCode = "not_found"   // no such model/job/route (404)
	CodeConflict    ErrorCode = "conflict"    // duplicate model ID (409)
	CodeNotFitted   ErrorCode = "not_fitted"  // clustering model awaits bootstrap (409)
	CodeTooLarge    ErrorCode = "too_large"   // body or batch over the cap (413)
	CodeOverloaded  ErrorCode = "overloaded"  // admission or queue shed (429)
	CodeInternal    ErrorCode = "internal"    // server-side failure (500)
	CodeUnavailable ErrorCode = "unavailable" // shutting down, or no healthy shard (503)
	CodeDegraded    ErrorCode = "degraded"    // cluster read lost every shard (503)
)

// ErrorBody is the payload of the unified error envelope. Retryable tells
// the caller whether the same request may succeed later without
// modification (shed, saturation, unavailability) — it travels on the
// wire so a multi-hop deployment keeps the origin's judgment.
type ErrorBody struct {
	Code      ErrorCode `json:"code"`
	Message   string    `json:"message"`
	Retryable bool      `json:"retryable"`
}

// ErrorResponse is the JSON body of every non-2xx response:
// {"error": {"code", "message", "retryable"}}.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// Typed sentinels for errors.Is against client-side errors. A
// *StatusError matches the sentinel its envelope code (or, for plain-text
// responses, its HTTP status) implies.
var (
	// ErrNotFound: the named model, job, or route does not exist.
	ErrNotFound = errors.New("dmsapi: not found")
	// ErrNotFitted: the data service awaits its bootstrap clustering fit.
	ErrNotFitted = errors.New("dmsapi: clustering model not fitted")
	// ErrDuplicateModel: the model ID is already registered.
	ErrDuplicateModel = errors.New("dmsapi: duplicate model id")
	// ErrOverloaded: the server shed the request (admission or queue).
	ErrOverloaded = errors.New("dmsapi: server overloaded")
	// ErrUnavailable: the server (or every shard behind a router) cannot
	// serve the request right now.
	ErrUnavailable = errors.New("dmsapi: service unavailable")
)

// StatusError is the typed form of a non-2xx response, on both sides of
// the wire: handlers return it to pick the status the pipeline writes, and
// the client decodes it from the error envelope (deriving ErrCode and
// Retryable from the status for plain-text bodies). Code is the HTTP
// status. It matches the package sentinels under errors.Is, so callers
// branch on error classes without status-code arithmetic.
type StatusError struct {
	Code      int
	ErrCode   ErrorCode
	Message   string
	Retryable bool
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("dmsapi: server returned %d (%s): %s", e.Code, e.ErrCode, e.Message)
}

// Is maps the error onto the package sentinels: errors.Is(err,
// dmsapi.ErrOverloaded) is true for any 429/overloaded response however
// many router hops it crossed.
func (e *StatusError) Is(target error) bool {
	switch target {
	case ErrNotFound:
		return e.ErrCode == CodeNotFound || e.Code == http.StatusNotFound
	case ErrNotFitted:
		return e.ErrCode == CodeNotFitted
	case ErrDuplicateModel:
		return e.ErrCode == CodeConflict
	case ErrOverloaded:
		return e.ErrCode == CodeOverloaded || e.Code == http.StatusTooManyRequests
	case ErrUnavailable:
		return e.ErrCode == CodeUnavailable || e.ErrCode == CodeDegraded ||
			e.Code == http.StatusServiceUnavailable
	}
	return false
}

// codeForStatus derives the envelope code from an HTTP status — the
// fallback for handlers (and upstream bodies) that didn't pick a more
// specific one.
func codeForStatus(status int) ErrorCode {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusConflict:
		return CodeConflict
	case http.StatusRequestEntityTooLarge:
		return CodeTooLarge
	case http.StatusTooManyRequests:
		return CodeOverloaded
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	default:
		return CodeInternal
	}
}

// retryableStatus reports whether a status class is worth retrying
// unmodified: shed (429) and unavailability (502/503/504) are transient,
// everything else is the request's own fault or a deterministic failure.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// WriteStatusError writes err as the unified error envelope — the one
// place a non-2xx status is written on either tier (the errboundary
// analyzer enforces that). A *StatusError, built by a handler or decoded
// from a shard response a router is forwarding, keeps its status, code,
// and retryability verbatim (so 409/429/503 round-trip losslessly; an
// empty code is filled from the status); anything else becomes a
// 500/internal.
func WriteStatusError(w http.ResponseWriter, err error) {
	var se *StatusError
	if !errors.As(err, &se) {
		se = &StatusError{Code: http.StatusInternalServerError, ErrCode: CodeInternal, Message: err.Error()}
	}
	body := ErrorBody{Code: se.ErrCode, Message: se.Message, Retryable: se.Retryable}
	if body.Code == "" {
		body.Code = codeForStatus(se.Code)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(se.Code)
	json.NewEncoder(w).Encode(ErrorResponse{Error: body})
}

// statusError decodes a non-2xx response body into a *StatusError: the
// envelope when there is one, else the raw body with the code derived
// from the status — net/http's own answers (ServeMux's 404/405, a
// proxy's 502) are plain text.
func statusError(status int, body []byte) error {
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err == nil && er.Error.Message != "" {
		return &StatusError{
			Code:      status,
			ErrCode:   er.Error.Code,
			Message:   er.Error.Message,
			Retryable: er.Error.Retryable,
		}
	}
	return &StatusError{
		Code:      status,
		ErrCode:   codeForStatus(status),
		Message:   strings.TrimSpace(string(body)),
		Retryable: retryableStatus(status),
	}
}
