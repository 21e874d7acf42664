// Command experiments regenerates the data behind every figure of the
// fairDMS paper's evaluation (§III) and the two §IV ablations (embedder
// and label retrieval), and prints the series as text tables.
//
// Usage:
//
//	experiments [-fig all|2|6|...|16|ablate-embed|ablate-retrieval] [-full] [-seed N]
//
// The default "quick" scale runs every figure in a few minutes on a laptop;
// -full uses paper-sized parameters where feasible (larger patches, more
// datasets) and takes correspondingly longer. Absolute numbers differ from
// the paper (different hardware, synthetic data); shapes are the target.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fairdms/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (2, 6-16, ablate-embed, ablate-retrieval, or all)")
	full := flag.Bool("full", false, "paper-scale parameters (slower)")
	seed := flag.Int64("seed", 1, "experiment seed")
	flag.Parse()

	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]
	run := func(name string, fn func() (interface{ Table() string }, error)) {
		if !all && !want[name] {
			return
		}
		start := time.Now()
		res, err := fn()
		if err != nil {
			log.Fatalf("fig %s: %v", name, err)
		}
		fmt.Println(res.Table())
		fmt.Printf("[fig %s regenerated in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	patch := 0 // harness defaults (quick)
	perDS := 0
	if *full {
		patch = 15
		perDS = 200
	}

	run("2", func() (interface{ Table() string }, error) {
		return experiments.Fig02(experiments.Fig02Config{Patch: patch, PerDataset: perDS, Seed: *seed})
	})
	for _, sk := range []struct {
		name string
		kind experiments.StorageKind
	}{
		{"6", experiments.StorageTomography},
		{"7", experiments.StorageCookieBox},
		{"8", experiments.StorageBragg},
	} {
		kind := sk.kind
		run(sk.name, func() (interface{ Table() string }, error) {
			dir, err := os.MkdirTemp("", "fairdms-exp-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			samples := 192
			if *full {
				samples = 512
			}
			return experiments.StorageSweep(experiments.StorageConfig{
				Kind: kind, Samples: samples,
				Dir: filepath.Join(dir, string(kind)), Seed: *seed,
			})
		})
	}
	run("9", func() (interface{ Table() string }, error) {
		cfg := experiments.Fig09Config{Seed: *seed}
		if *full {
			cfg.Historical = 600
			cfg.NewSamples = 300
		}
		return experiments.Fig09(cfg)
	})
	run("10", func() (interface{ Table() string }, error) {
		return experiments.ErrVsJSD(experiments.ErrJSDConfig{
			App: experiments.AppBragg, Patch: patch, TestDatasets: 4, Seed: *seed,
		})
	})
	run("11", func() (interface{ Table() string }, error) {
		return experiments.ErrVsJSD(experiments.ErrJSDConfig{
			App: experiments.AppCookie, TestDatasets: 4, Seed: *seed,
		})
	})
	run("12", func() (interface{ Table() string }, error) {
		return experiments.Fig12(experiments.Fig12Config{Patch: patch, PerDataset: perDS, Seed: *seed})
	})
	run("13", func() (interface{ Table() string }, error) {
		return experiments.LearningCurves(experiments.CurvesConfig{
			App: experiments.AppCookie, TestDatasets: 4, Seed: *seed,
		})
	})
	run("14", func() (interface{ Table() string }, error) {
		return experiments.LearningCurves(experiments.CurvesConfig{
			App: experiments.AppBragg, Patch: patch, TestDatasets: 4, Seed: *seed,
		})
	})
	run("15", func() (interface{ Table() string }, error) {
		cfg := experiments.Fig15Config{Patch: patch, Seed: *seed}
		if *full {
			cfg.ScanPeaks = 1_000_000
		}
		return experiments.Fig15(cfg)
	})
	run("16", func() (interface{ Table() string }, error) {
		cfg := experiments.Fig16Config{Patch: patch, Seed: *seed}
		if !*full {
			// Quick scale keeps the paper's 36-dataset shape but smaller
			// per-dataset counts; the harness defaults handle the rest.
			cfg.PerDataset = 30
			cfg.Clusters = 10
		}
		return experiments.Fig16(cfg)
	})
	run("ablate-embed", func() (interface{ Table() string }, error) {
		return experiments.EmbedAblation(experiments.EmbedAblationConfig{Seed: *seed})
	})
	run("ablate-retrieval", func() (interface{ Table() string }, error) {
		return experiments.RetrievalAblation(experiments.RetrievalAblationConfig{Seed: *seed})
	})
}
