package dmsapi

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fairdms/internal/obs"
)

// TestPipelineLogsFailuresByClass checks the one failure-logging rule both
// tiers share: a server fault (an untyped error or a 5xx) is a warn line,
// the caller's own mistake a debug line, a success nothing.
func TestPipelineLogsFailuresByClass(t *testing.T) {
	var buf bytes.Buffer
	p := NewPipeline(PipelineConfig{
		MetricPrefix: "dms_test_", RootSpan: "request",
		Logger: obs.NewLogger(&buf, obs.LevelDebug),
	})
	p.Handle("GET /ok", "ok", 0, func(w http.ResponseWriter, r *http.Request) error {
		return WriteBody(w, r, struct{}{})
	})
	p.Handle("GET /bad", "bad", 0, func(w http.ResponseWriter, r *http.Request) error {
		return errf(http.StatusBadRequest, "no")
	})
	p.Handle("GET /boom", "boom", 0, func(w http.ResponseWriter, r *http.Request) error {
		return errors.New("disk on fire")
	})
	for _, tc := range []struct {
		path, level string
		status      int
	}{
		{"/ok", "", http.StatusOK},
		{"/bad", "level=debug", http.StatusBadRequest},
		{"/boom", "level=warn", http.StatusInternalServerError},
	} {
		buf.Reset()
		rec := httptest.NewRecorder()
		p.Handler().ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d", tc.path, rec.Code, tc.status)
		}
		line := buf.String()
		if tc.level == "" {
			if line != "" {
				t.Errorf("%s: logged %q, want nothing", tc.path, line)
			}
			continue
		}
		if !strings.Contains(line, tc.level) || !strings.Contains(line, "endpoint="+tc.path[1:]) {
			t.Errorf("%s: logged %q, want a %s line naming the endpoint", tc.path, line, tc.level)
		}
	}
}
