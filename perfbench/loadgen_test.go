package main

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or the fake server
// blocks.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) { c.t = max(c.t, t) }

// A server that stalls for 30 ms blocks the call that meets the stall,
// and with it the generator. Every request due during the stall must be
// charged the wait from its own due time, not only the one that met it:
// timing from the actual send would report 29 of the 30 as instant.
func TestStallChargesEveryRequestDueDuringIt(t *testing.T) {
	const step = time.Millisecond
	stallFrom, stallTo := 20*step, 50*step
	var arrivals []time.Duration
	for i := 0; i < 100; i++ {
		arrivals = append(arrivals, time.Duration(i)*step)
	}
	clk := &fakeClock{}
	lat := make([]time.Duration, len(arrivals))
	late := openLoop(clk, 0, arrivals, func(i int, due time.Duration) {
		if clk.t >= stallFrom && clk.t < stallTo {
			clk.t = stallTo // the call blocks until the stall ends
		}
		lat[i] = clk.now() - due // then the reply is immediate
	})
	for i, due := range arrivals {
		var want, wantLate time.Duration
		if due >= stallFrom && due < stallTo {
			want = stallTo - due
			if due > stallFrom {
				wantLate = stallTo - due
			}
		}
		if lat[i] != want {
			t.Errorf("request due at %v: latency %v, want %v", due, lat[i], want)
		}
		if late[i] != wantLate {
			t.Errorf("request due at %v: sent %v late, want %v", due, late[i], wantLate)
		}
	}
}

// The generator keeps to its schedule when the server answers at once.
func TestOpenLoopSendsOnSchedule(t *testing.T) {
	clk := &fakeClock{}
	arrivals := []time.Duration{0, 3 * time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond}
	var sent []time.Duration
	late := openLoop(clk, 5*time.Millisecond, arrivals, func(i int, due time.Duration) {
		sent = append(sent, clk.now())
	})
	for i, a := range arrivals {
		if sent[i] != 5*time.Millisecond+a || late[i] != 0 {
			t.Errorf("request %d sent at %v (late %v), want %v", i, sent[i], late[i], 5*time.Millisecond+a)
		}
	}
}

// A different seed moves the arrivals but not the offered rate.
func TestSeedMovesArrivalsNotRate(t *testing.T) {
	const rate, d = 5000.0, 20 * time.Second
	a := poisson(rand.New(rand.NewPCG(1, streamArrivals)), rate, d)
	b := poisson(rand.New(rand.NewPCG(2, streamArrivals)), rate, d)
	again := poisson(rand.New(rand.NewPCG(1, streamArrivals)), rate, d)
	if len(a) != len(again) || a[len(a)/2] != again[len(again)/2] {
		t.Fatal("the same seed gave different arrivals")
	}
	if a[len(a)/2] == b[len(b)/2] {
		t.Error("different seeds gave the same arrivals")
	}
	for _, xs := range [][]time.Duration{a, b} {
		got := float64(len(xs)) / d.Seconds()
		if math.Abs(got-rate)/rate > 0.02 {
			t.Errorf("offered %.0f req/s, want %.0f within 2%%", got, rate)
		}
	}
}
