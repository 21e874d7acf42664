package obs

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func boolPtr(b bool) *bool { return &b }

func TestTraceLogQuery(t *testing.T) {
	l := NewTraceLog(8)
	at := time.Unix(1754649600, 0)
	l.Add(TraceEntry{Op: "data.nearest", DurMS: 2, At: at})
	l.Add(TraceEntry{Op: "data.nearest", DurMS: 30, At: at, Error: "shard down"})
	l.Add(TraceEntry{Op: "models.recommend", DurMS: 12, At: at, Degraded: true})

	all, err := l.Query(TraceQuery{})
	if err != nil || len(all) != 3 {
		t.Fatalf("Query all = %d, %v", len(all), err)
	}
	if all[0].Op != "models.recommend" {
		t.Errorf("not newest-first: %+v", all[0])
	}

	byOp, _ := l.Query(TraceQuery{Op: "data.nearest"})
	if len(byOp) != 2 {
		t.Errorf("op filter = %d, want 2", len(byOp))
	}
	slow, _ := l.Query(TraceQuery{MinMS: 10})
	if len(slow) != 2 {
		t.Errorf("min_ms filter = %d, want 2", len(slow))
	}
	errored, _ := l.Query(TraceQuery{Error: boolPtr(true)})
	if len(errored) != 1 || errored[0].Error != "shard down" {
		t.Errorf("error filter = %+v", errored)
	}
	clean, _ := l.Query(TraceQuery{Error: boolPtr(false)})
	if len(clean) != 2 {
		t.Errorf("clean filter = %d, want 2", len(clean))
	}
	degraded, _ := l.Query(TraceQuery{Degraded: boolPtr(true)})
	if len(degraded) != 1 || degraded[0].Op != "models.recommend" {
		t.Errorf("degraded filter = %+v", degraded)
	}
}

func TestTraceLogEviction(t *testing.T) {
	l := NewTraceLog(3)
	for i := 0; i < 5; i++ {
		l.Add(TraceEntry{Op: fmt.Sprintf("op_%d", i)})
	}
	got, err := l.Query(TraceQuery{})
	if err != nil || len(got) != 3 {
		t.Fatalf("retained %d, %v", len(got), err)
	}
	if got[0].Op != "op_4" || got[2].Op != "op_2" {
		t.Errorf("eviction order wrong: %+v", got)
	}
	if l.Total() != 5 {
		t.Errorf("Total = %d, want 5", l.Total())
	}
}

func TestTraceLogDisabled(t *testing.T) {
	for _, l := range []*TraceLog{nil, NewTraceLog(0), NewTraceLog(-1)} {
		l.Add(TraceEntry{Op: "x"})
		if _, err := l.Query(TraceQuery{}); !errors.Is(err, ErrDisabled) {
			t.Errorf("disabled log Query err = %v, want ErrDisabled", err)
		}
		if l.Enabled() || l.Total() != 0 {
			t.Error("disabled log claims enabled or counted an entry")
		}
	}
}
