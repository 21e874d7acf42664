package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"fairdms/internal/fsx"
)

// report is the file fairbench writes and -compare reads: provenance first,
// so two reports are comparable or visibly not, then one result per
// workload run.
type report struct {
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"nproc"`
	CPUModel   string    `json:"cpu_model"`
	StartedAt  time.Time `json:"started_at"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Results    []*result `json:"results"`
}

func newReport(l layout, seed int64, seconds float64) *report {
	return &report{
		Commit:     commitOf(l.root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		StartedAt:  time.Now().UTC(),
		Seed:       seed,
		Seconds:    seconds,
	}
}

// commitOf names the checkout's commit, or "unknown" outside a git
// repository (the driver's checkouts are plain directories).
func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (r *report) write(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return fsx.WriteFileAtomic(path, append(blob, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worsening is how far cur is on the wrong side of base, as a share of
// base: positive means worse.
func (m metric) worsening(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if m.better == "lower" {
		return (cur - base) / base
	}
	return (base - cur) / base
}

// gated lists the metrics with a bound, in table order.
func gated() []metric {
	var out []metric
	for _, m := range metrics {
		if m.bound > 0 {
			out = append(out, m)
		}
	}
	return out
}

// repeatRuns is the noise self-check: every selected workload runs n times
// back to back on seeds seed, seed+1, …, and each gated metric's spread is
// printed next to its bound. The exit code is non-zero when an
// interquartile spread — the statistic the driver gates on — exceeds the
// bound (setup_s, which the driver exempts from the spread rule, is
// reported but not failed); (max − min) ÷ median is printed beside it as
// the harsher figure.
func repeatRuns(w io.Writer, selected []*spec, n int, seed int64, runOne func(*spec, int64) (*result, error)) (int, error) {
	if n < 2 {
		return 2, fmt.Errorf("-repeat needs at least 2 runs")
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-18s %12s %12s %12s %8s %8s %7s\n",
		"workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	for _, s := range selected {
		series := make(map[string][]float64)
		for i := 0; i < n; i++ {
			res, err := runOne(s, seed+int64(i))
			if err != nil {
				return 1, err
			}
			if !res.correct() {
				res.print(w)
				code = 1
			}
			for name, v := range res.Metrics {
				series[name] = append(series[name], v.Value)
			}
		}
		for _, m := range gated() {
			xs := series[m.name]
			if len(xs) < 2 {
				continue
			}
			med := median(xs)
			q1, q3 := quartiles(xs)
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			iqr, rng := (q3-q1)/med, (hi-lo)/med
			verdict := ""
			if iqr > m.bound && m.name != "setup_s" {
				verdict = "  SPREAD EXCEEDS BOUND"
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-18s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %6.1f%%%s\n",
				s.name, m.name, med, q1, q3, 100*iqr, 100*rng, 100*m.bound, verdict)
		}
	}
	return code, nil
}

// compareReports prints, per workload and gated metric present in both
// reports, the change from a to b against the metric's bound. It returns 1
// when any metric worsened beyond its bound.
func compareReports(w io.Writer, pathA, pathB string) int {
	a, err := readReport(pathA)
	if err != nil {
		return fail(2, "%v", err)
	}
	b, err := readReport(pathB)
	if err != nil {
		return fail(2, "%v", err)
	}
	fmt.Fprintf(w, "a: %s commit %s, %s, GOMAXPROCS %d, %s, seed %d\n", pathA, a.Commit, a.GoVersion, a.GOMAXPROCS, a.CPUModel, a.Seed)
	fmt.Fprintf(w, "b: %s commit %s, %s, GOMAXPROCS %d, %s, seed %d\n", pathB, b.Commit, b.GoVersion, b.GOMAXPROCS, b.CPUModel, b.Seed)
	byWorkload := func(r *report) map[string][]*result {
		out := make(map[string][]*result)
		for _, res := range r.Results {
			out[res.Workload] = append(out[res.Workload], res)
		}
		return out
	}
	// A report may hold several runs of a workload; compare medians.
	med := func(rs []*result, name string) (float64, bool) {
		var xs []float64
		for _, r := range rs {
			if v, ok := r.Metrics[name]; ok {
				xs = append(xs, v.Value)
			}
		}
		return median(xs), len(xs) > 0
	}
	ra, rb := byWorkload(a), byWorkload(b)
	code := 0
	fmt.Fprintf(w, "%-16s %-18s %12s %12s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, s := range specs {
		for _, m := range gated() {
			va, okA := med(ra[s.name], m.name)
			vb, okB := med(rb[s.name], m.name)
			if !okA || !okB {
				continue
			}
			worse := m.worsening(va, vb)
			verdict := ""
			if worse > m.bound {
				verdict = "  REGRESSION"
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-18s %12.6g %12.6g %+8.2f%% %6.1f%%%s\n",
				s.name, m.name, va, vb, 100*worse, 100*m.bound, verdict)
		}
	}
	return code
}
