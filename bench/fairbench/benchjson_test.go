package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json is the driver's copy of the metric and workload tables;
// this keeps the two from drifting.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	blob, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jm `json:"end_to_end"`
		PerLayer []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"go", "run", "-C", "bench", "./fairbench"}) || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", file.Command, file.Paths)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("%d workloads in the file, %d in the table", len(file.Workloads), len(specs))
	}
	for i, s := range specs {
		if w := file.Workloads[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: file has %q (%q), table has %q (%q)", i, w.Name, w.Why, s.name, s.why)
		}
		if len(s.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", s.name, len(s.why))
		}
	}
	var e2e, layer []jm
	for _, m := range metrics {
		if m.class == endToEnd {
			b := m.bound
			e2e = append(e2e, jm{m.name, m.unit, m.better, &b})
		} else {
			layer = append(layer, jm{Name: m.name, Unit: m.unit, Better: m.better})
		}
	}
	if !reflect.DeepEqual(file.EndToEnd, e2e) {
		t.Errorf("end_to_end differs from the metric table:\nfile  %+v\ntable %+v", file.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(file.PerLayer, layer) {
		t.Errorf("per_layer differs from the metric table")
	}
}
