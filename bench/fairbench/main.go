// Command fairbench is the repository's benchmark: five single-client
// workloads against the real dmsd and dmsrouter binaries, reported end to
// end and layer by layer. See ../README.md for the metric tables, the
// measurement rules and what is deliberately left out.
//
// Usage (from the checkout root):
//
//	go run -C bench ./fairbench                      every workload, end to end
//	go run -C bench ./fairbench -workload serve_hot  one workload; last stdout line is the driver's JSON
//	go run -C bench ./fairbench -workload serve_hot -trace 1   plus the in-process traced pass
//	go run -C bench ./fairbench -repeat 5            noise self-check against the bounds
//	go run -C bench ./fairbench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "run one workload and print the driver's JSON line (default: all five)")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "sizes the fixed work: about this many seconds of measured phase on the seed commit")
	trace := flag.Int("trace", 0, "1 adds the in-process traced pass and reports the per-layer metrics")
	repeat := flag.Int("repeat", 0, "run every selected workload N times and check each metric's spread against its bound")
	compare := flag.Bool("compare", false, "compare two report files: fairbench -compare old.json new.json")
	out := flag.String("out", "", "report file (default bench/out/report.json)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fail(2, "-compare needs two report files")
		}
		return compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	selected := specs
	if *workload != "" {
		s := specByName(*workload)
		if s == nil {
			return fail(2, "unknown workload %q", *workload)
		}
		selected = []*spec{s}
	}
	if *seconds <= 0 {
		return fail(2, "-seconds must be positive")
	}

	l, err := findLayout()
	if err != nil {
		return fail(1, "%v", err)
	}
	defer os.RemoveAll(l.tmp)
	if err := l.buildDaemons(); err != nil {
		return fail(1, "%v", err)
	}

	// A signal must not orphan daemons: kill what is running, clean up,
	// leave.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killLiveDaemons()
		os.RemoveAll(l.tmp)
		os.Exit(130)
	}()

	runOne := func(s *spec, seed int64) (*result, error) {
		rc := &runCtx{spec: s, seed: seed, seconds: *seconds, trace: *trace != 0, l: l}
		rc.res = newResult(rc)
		if err := s.run(rc); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		if rc.trace {
			if err := runTraced(rc); err != nil {
				return nil, fmt.Errorf("%s (traced): %w", s.name, err)
			}
		}
		return rc.res, nil
	}

	if *repeat > 0 {
		code, err := repeatRuns(os.Stdout, selected, *repeat, *seed, runOne)
		if err != nil {
			return fail(1, "%v", err)
		}
		return code
	}

	rep := newReport(l, *seed, *seconds)
	for _, s := range selected {
		res, err := runOne(s, *seed)
		if err != nil {
			return fail(1, "%v", err)
		}
		res.print(os.Stdout)
		rep.Results = append(rep.Results, res)
	}
	path := *out
	if path == "" {
		path = filepath.Join(l.out, "report.json")
	}
	if err := rep.write(path); err != nil {
		return fail(1, "%v", err)
	}
	if *workload != "" {
		line, err := driverLine(rep.Results[0], *trace != 0)
		if err != nil {
			return fail(1, "%v", err)
		}
		fmt.Println(line)
	}
	return exitCode(rep.Results)
}

// exitCode is non-zero when any run failed an answer check.
func exitCode(results []*result) int {
	for _, r := range results {
		if !r.correct() {
			return 1
		}
	}
	return 0
}

// driverLine renders the driver's contract: one JSON object with exactly
// correct, attempted, failed and metrics — every end_to_end metric for an
// untraced run, every per_layer metric for a traced one. A per-layer metric
// the workload does not exercise is reported as 0 (the layer did nothing);
// a missing end-to-end metric is a bug in the workload and an error.
func driverLine(r *result, traced bool) (string, error) {
	type dv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]dv)
	for _, m := range metrics {
		if (m.class == endToEnd) == traced {
			continue
		}
		v, ok := r.Metrics[m.name]
		if !ok && !traced {
			return "", fmt.Errorf("%s did not emit end-to-end metric %s", r.Workload, m.name)
		}
		ms[m.name] = dv{Value: v.Value, Unit: m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]dv `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, ms})
	return string(b), err
}

func fail(code int, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "fairbench: "+format+"\n", args...)
	return code
}
