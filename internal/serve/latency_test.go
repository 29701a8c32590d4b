package serve

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/microbench"
)

// TestLatencyQuantilesMatchSummarize checks the counter quantiles
// against microbench.Summarize, the sorted-window reference: over random
// sample sets from 1µs to 4s, each reported P50/P95/P99 is the upper
// edge of the counter holding Summarize's nearest-rank value, at most
// 1.5/8 above it. The second half of each trial checks the same for an
// interval read (latCounts.since), the form the controllers see.
func TestLatencyQuantilesMatchSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lo, hi := math.Log(float64(time.Microsecond)), math.Log(float64(4*time.Second))
	draw := func(n int) []time.Duration {
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = time.Duration(math.Exp(lo + rng.Float64()*(hi-lo)))
		}
		return xs
	}
	check := func(trial int, c latCounts, xs []time.Duration) {
		t.Helper()
		got, want := c.stats(), microbench.Summarize(xs)
		if got.Reps != want.Reps || got.Mean != want.Mean {
			t.Fatalf("trial %d: reps/mean %d/%v, want %d/%v", trial, got.Reps, got.Mean, want.Reps, want.Mean)
		}
		for _, q := range []struct {
			name      string
			got, want time.Duration
		}{{"P50", got.P50, want.P50}, {"P95", got.P95, want.P95}, {"P99", got.P99, want.P99}} {
			k, _ := slices.BinarySearch(latEdges[:], q.want)
			if q.got != latEdges[k] {
				t.Fatalf("trial %d n=%d: %s = %v, want %v (edge of the counter holding %v)",
					trial, len(xs), q.name, q.got, latEdges[k], q.want)
			}
			if rel := float64(q.got-q.want) / float64(q.want); rel < 0 || rel > 1.5/8 {
				t.Fatalf("trial %d: %s = %v for %v, relative error %.4f", trial, q.name, q.got, q.want, rel)
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		var m metrics
		before := draw(1 + rng.Intn(500))
		for _, x := range before {
			m.observe(x)
		}
		prev := m.load()
		check(trial, prev, before)

		after := draw(1 + rng.Intn(500))
		for _, x := range after {
			m.observe(x)
		}
		cur := m.load()
		check(trial, cur.since(&prev), after)
	}
}

// TestHistExportUnchanged pins the Prometheus export across the
// counter refinement: the 15 le bounds are the ones the coarse
// histogram had, and every observation lands in the same cumulative
// buckets it did when observe scanned those bounds directly.
func TestHistExportUnchanged(t *testing.T) {
	want := []time.Duration{
		50 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond,
		500 * time.Microsecond, time.Millisecond, 2500 * time.Microsecond,
		5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
		50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
		500 * time.Millisecond, time.Second, 2500 * time.Millisecond,
	}
	if !slices.Equal(HistBounds(), want) {
		t.Fatalf("HistBounds = %v, want %v", HistBounds(), want)
	}
	xs := []time.Duration{0, 1, time.Microsecond, 11 * time.Second}
	for _, b := range want {
		xs = append(xs, b-1, b, b+1)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		xs = append(xs, time.Duration(rng.Int63n(int64(3*time.Second))))
	}
	var m metrics
	coarse := make([]uint64, numHistBuckets)
	for _, x := range xs {
		m.observe(x)
		b := 0
		for b < len(want) && x > want[b] {
			b++
		}
		coarse[b]++
	}
	for i := 1; i < len(coarse); i++ {
		coarse[i] += coarse[i-1]
	}
	if got := m.histSnapshot(); !slices.Equal(got, coarse) {
		t.Fatalf("exported histogram %v, want %v", got, coarse)
	}
}

// TestWatchdogAdoptsPermanentShift: a permanent 10x P99 shift is one
// incident. The watchdog fires on it once; the baseline adopts the new
// level inside the cooldown, so it never fires again — each fire would
// write another flight-recorder dump.
func TestWatchdogAdoptsPermanentShift(t *testing.T) {
	var d anomalyDetector
	fires := 0
	for i := 0; i < 600; i++ {
		p99 := 5 * time.Millisecond
		if i >= 10 {
			p99 = 50 * time.Millisecond
		}
		if _, fired := d.observe(p99Sample(p99)); fired {
			fires++
		}
	}
	if fires != 1 {
		t.Fatalf("permanent 10x shift fired %d times in 600 samples, want 1", fires)
	}
}

// TestScalerAdoptsPermanentShift: under light load (one queued request
// against a cap of 64) a permanent 5x P99 shift may grow the pool, but
// once the baseline adopts the new level the grow votes stop.
func TestScalerAdoptsPermanentShift(t *testing.T) {
	var d scaleDetector
	const maxInFlight = 64
	sample := func(p99 time.Duration) Metrics {
		return Metrics{Shards: 1, QueueDepth: 1, InFlight: 1, Latency: microbench.Stats{P99: p99}}
	}
	for i := 0; i < spikeWarmup+1; i++ {
		d.observe(sample(time.Millisecond), maxInFlight)
	}
	last := -1
	for i := 0; i < 600; i++ {
		if d.observe(sample(5*time.Millisecond), maxInFlight) == 1 {
			last = i
		}
	}
	if last < 0 || last >= 16 {
		t.Fatalf("last grow vote at shifted sample %d, want one within the first 16", last)
	}
}

// TestSampleIdleIntervalReadsZero drives a real server through load and
// then idle: the controllers' interval sample sees the load's P99, then
// P99 = 0 with nothing completed — never the busy interval's value —
// while the lifetime Metrics keep it.
func TestSampleIdleIntervalReadsZero(t *testing.T) {
	s := MustNew(Options{Backend: "go", Threads: 1, Shards: 2})
	defer s.Close()
	const n = 50
	for i := 0; i < n; i++ {
		f, err := Do(s.Submitter(), context.Background(), func() (int, error) {
			time.Sleep(100 * time.Microsecond)
			return i, nil
		}, Req{})
		if err != nil {
			t.Fatal(err)
		}
		f.MustWait()
	}
	var prev latCounts
	if m := s.sample(&prev); m.Latency.Reps != n || m.Latency.P99 <= 0 {
		t.Fatalf("loaded interval: %d completions, P99 %v; want %d and > 0", m.Latency.Reps, m.Latency.P99, n)
	}
	if m := s.sample(&prev); m.Latency.Reps != 0 || m.Latency.P99 != 0 {
		t.Fatalf("idle interval: %d completions, P99 %v; want 0 and 0", m.Latency.Reps, m.Latency.P99)
	}
	if m := s.Metrics(); m.Latency.Reps != n || m.Latency.P99 <= 0 {
		t.Fatalf("lifetime Latency: %d completions, P99 %v; want %d and > 0", m.Latency.Reps, m.Latency.P99, n)
	}
}
