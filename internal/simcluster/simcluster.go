// Package simcluster models the compute platforms of the paper's case study
// (§III-H): an 80-core workstation ("Voigt-80") and an 18-node, 1440-core
// cluster ("Voigt-1440") running embarrassingly parallel pseudo-Voigt
// labeling. Neither machine exists here, so the package measures real
// per-task cost on the host's cores and extrapolates wall time under a
// perfect-scaling assumption — the most favorable case for the
// conventional baseline, making fairDMS's reported speedups conservative.
//
// The per-task cost it measures is the pseudo-Voigt fit from
// internal/voigt; internal/experiments uses the extrapolations for the
// §III-H comparison tables.
package simcluster

import "time"

// Platform is a named pool of cores.
type Platform struct {
	Name  string
	Cores int
}

// Standard platforms from the paper.
var (
	Workstation80 = Platform{Name: "Voigt-80", Cores: 80}
	Cluster1440   = Platform{Name: "Voigt-1440", Cores: 1440}
)

// EstimateWallTime returns the wall time for nTasks independent tasks of
// the given mean duration under perfect scaling on the platform: ceil
// division of task count over cores times the per-task cost.
func (p Platform) EstimateWallTime(nTasks int, perTask time.Duration) time.Duration {
	if nTasks <= 0 {
		return 0
	}
	if p.Cores < 1 {
		return time.Duration(nTasks) * perTask
	}
	waves := (nTasks + p.Cores - 1) / p.Cores
	return time.Duration(waves) * perTask
}

// MeasurePerTask runs the task n times on this machine and returns the mean
// wall time per execution, the calibration input to EstimateWallTime.
func MeasurePerTask(task func(), n int) time.Duration {
	if n < 1 {
		n = 1
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		task()
	}
	return time.Since(start) / time.Duration(n)
}
