// Package omp is the public directive-style programming layer over the
// unified LWT API — the paper's future-work proposal (§X) realized: an
// OpenMP-shaped programming model (parallel for with static/dynamic/
// guided schedules, single-region tasks, taskwait, reductions, critical
// sections) whose "threads" are lightweight work units on any registered
// backend, instead of Pthreads.
//
//	rt := omp.MustOpen(omp.Config{Backend: "argobots", Executors: 8})
//	defer rt.Close()
//	rt.ParallelFor(n, omp.Static, 0, func(i int) { v[i] *= a })
package omp

import (
	"repro/internal/omplwt"
)

// Schedule selects the loop iteration-distribution policy.
type Schedule = omplwt.Schedule

// The schedule kinds of the schedule clause.
const (
	// Static divides iterations into one contiguous chunk per thread.
	Static = omplwt.Static
	// Dynamic hands out fixed-size chunks on demand.
	Dynamic = omplwt.Dynamic
	// Guided hands out exponentially shrinking chunks on demand.
	Guided = omplwt.Guided
)

// Runtime is a directive-style layer over one LWT backend.
type Runtime = omplwt.Runtime

// Region is the per-construct context inside parallel regions.
type Region = omplwt.Region

// Config parameterizes Open — the unified API's configuration (backend,
// executors, scheduler policy, strictness), so directive-level programs
// negotiate capabilities exactly like unified-API ones.
type Config = omplwt.Config

// Open builds the layer over a unified-API backend opened from the
// configuration.
func Open(cfg Config) (*Runtime, error) { return omplwt.Open(cfg) }

// MustOpen is Open for known-good configurations; it panics on error.
func MustOpen(cfg Config) *Runtime { return omplwt.MustOpen(cfg) }

