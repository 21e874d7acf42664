package obs

import (
	"errors"
	"sync"
	"time"
)

// ErrDisabled is returned by read surfaces of switched-off subsystems —
// TraceLog.Query with a zero-size ring. API handlers map it to 404 Not
// Found (see the errboundary sentinel table): the route exists, the
// feature is off.
var ErrDisabled = errors.New("obs: subsystem disabled")

// TraceLog is the tail-based retention ring behind /debug/tracez: every
// serving tier keeps full span trees for the operations worth keeping —
// slow, errored, or degraded — regardless of whether the client asked
// for sampling. It answers "show me the trace of the request that failed
// / ran degraded / took 300 ms five minutes ago", filterable by
// operation, duration floor, and error/degraded state.

// TraceEntry is one retained request trace.
type TraceEntry struct {
	Op       string    `json:"op"`
	DurMS    float64   `json:"dur_ms"`
	At       time.Time `json:"at"`
	Error    string    `json:"error,omitempty"`
	Degraded bool      `json:"degraded,omitempty"`
	Trace    TraceDump `json:"trace"`
}

// TraceQuery filters Query results. Zero values match everything; Error
// and Degraded are tri-state (nil = don't care).
type TraceQuery struct {
	Op       string  // exact op name, "" = any
	MinMS    float64 // minimum duration
	Error    *bool   // true = only errored, false = only clean
	Degraded *bool
}

func (q TraceQuery) matches(e TraceEntry) bool {
	if q.Op != "" && e.Op != q.Op {
		return false
	}
	if e.DurMS < q.MinMS {
		return false
	}
	if q.Error != nil && (e.Error != "") != *q.Error {
		return false
	}
	if q.Degraded != nil && e.Degraded != *q.Degraded {
		return false
	}
	return true
}

// TraceLog is a bounded ring of retained traces. Safe for concurrent use;
// a nil or zero-size log is a disabled no-op.
type TraceLog struct {
	mu    sync.Mutex
	ring  []TraceEntry
	next  int
	size  int
	total int64
}

// NewTraceLog returns a ring retaining the most recent size traces.
// Non-positive size disables retention (Add no-ops, Query returns
// ErrDisabled).
func NewTraceLog(size int) *TraceLog {
	if size <= 0 {
		return &TraceLog{}
	}
	return &TraceLog{size: size, ring: make([]TraceEntry, 0, size)}
}

// Enabled reports whether the log retains anything. Nil-safe.
func (l *TraceLog) Enabled() bool { return l != nil && l.size > 0 }

// Add retains one trace, evicting the oldest when full. Nil-safe.
func (l *TraceLog) Add(e TraceEntry) {
	if !l.Enabled() {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.ring) < l.size {
		l.ring = append(l.ring, e)
		return
	}
	l.ring[l.next] = e
	l.next = (l.next + 1) % l.size
}

// Total returns how many traces were ever retained (including evicted
// ones). Nil-safe.
func (l *TraceLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Query returns retained traces matching q, newest first. When the log is
// disabled it returns ErrDisabled.
func (l *TraceLog) Query(q TraceQuery) ([]TraceEntry, error) {
	if !l.Enabled() {
		return nil, ErrDisabled
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]TraceEntry, 0, len(l.ring))
	// Ring order is oldest→newest starting at next; walk it backwards.
	for i := len(l.ring) - 1; i >= 0; i-- {
		e := l.ring[(l.next+i)%len(l.ring)]
		if q.matches(e) {
			out = append(out, e)
		}
	}
	return out, nil
}
