package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p99 over 500 samples rests on five points, so the rule reports the
// highest percentile that still has ten samples beyond it instead.
const minBeyond = 10

// quantile returns the nearest-rank value at percentile p of sorted,
// capped at the highest percentile with at least minBeyond samples
// above it (and never below the median), plus the percentile used.
func quantile(sorted []float64, p float64) (v, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, p
	}
	k := int(math.Ceil(p/100*float64(n))) - 1
	if k > n-1-minBeyond {
		k = n - 1 - minBeyond
	}
	if mid := (n - 1) / 2; k < mid {
		k = mid
	}
	if k < 0 {
		k = 0
	}
	return sorted[k], 100 * float64(k+1) / float64(n)
}

// dist is a sample of one quantity, in the unit it will be reported in.
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(x float64) { d.xs = append(d.xs, x); d.sorted = false }

func (d *dist) q(p float64) float64 {
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	v, _ := quantile(d.xs, p)
	return v
}

func (d *dist) max() float64 {
	m := 0.0
	for _, x := range d.xs {
		m = math.Max(m, x)
	}
	return m
}

// reservoir keeps a uniform fixed-size sample of a stream (Algorithm
// R), so a closed phase of unknown length costs the same memory on a
// slow and a fast program — max_rss_mb must not grow with throughput.
type reservoir struct {
	xs   []float64
	seen int
	rng  *rand.Rand
}

func newReservoir(n int, rng *rand.Rand) *reservoir {
	return &reservoir{xs: make([]float64, 0, n), rng: rng}
}

func (r *reservoir) add(x float64) {
	r.seen++
	if len(r.xs) < cap(r.xs) {
		r.xs = append(r.xs, x)
		return
	}
	if j := r.rng.IntN(r.seen); j < len(r.xs) {
		r.xs[j] = x
	}
}

func (r *reservoir) dist() *dist { return &dist{xs: r.xs} }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// median of a few repeated measurements (set-up times).
func median(xs []float64) float64 {
	d := dist{xs: append([]float64(nil), xs...)}
	sort.Float64s(d.xs)
	n := len(d.xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d.xs[n/2]
	}
	return (d.xs[n/2-1] + d.xs[n/2]) / 2
}
