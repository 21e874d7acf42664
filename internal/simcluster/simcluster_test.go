package simcluster

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestEstimateWallTimePerfectScaling(t *testing.T) {
	p := Platform{Name: "test", Cores: 10}
	per := 100 * time.Millisecond
	// 10 tasks on 10 cores: one wave.
	if got := p.EstimateWallTime(10, per); got != per {
		t.Fatalf("10 tasks = %v, want %v", got, per)
	}
	// 11 tasks: two waves.
	if got := p.EstimateWallTime(11, per); got != 2*per {
		t.Fatalf("11 tasks = %v, want %v", got, 2*per)
	}
	if got := p.EstimateWallTime(0, per); got != 0 {
		t.Fatalf("0 tasks = %v", got)
	}
}

func TestEstimateWallTimeDegeneratePlatform(t *testing.T) {
	p := Platform{Cores: 0}
	if got := p.EstimateWallTime(3, time.Second); got != 3*time.Second {
		t.Fatalf("coreless platform = %v, want serial 3s", got)
	}
}

func TestMeasurePerTaskCounts(t *testing.T) {
	var runs atomic.Int64
	per := MeasurePerTask(func() { runs.Add(1) }, 7)
	if runs.Load() != 7 {
		t.Fatalf("task ran %d times, want 7", runs.Load())
	}
	if per < 0 {
		t.Fatal("negative per-task time")
	}
	// n < 1 clamps to 1.
	runs.Store(0)
	MeasurePerTask(func() { runs.Add(1) }, 0)
	if runs.Load() != 1 {
		t.Fatalf("clamped run count = %d", runs.Load())
	}
}

func TestClusterBeatsWorkstation(t *testing.T) {
	per := time.Second
	n := 10000
	w := Workstation80.EstimateWallTime(n, per)
	c := Cluster1440.EstimateWallTime(n, per)
	if c >= w {
		t.Fatalf("1440 cores (%v) not faster than 80 cores (%v)", c, w)
	}
	// Roughly 18× for large task counts.
	ratio := float64(w) / float64(c)
	if ratio < 15 || ratio > 20 {
		t.Fatalf("speedup ratio %g, want ≈ 18", ratio)
	}
}
