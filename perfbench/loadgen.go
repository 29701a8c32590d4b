package main

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the generator's time base: offsets from a fixed epoch. The
// fake clock in the tests stands a stalled server in for a real one.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

// realClock sleeps until a send is due. With spin set it sleeps only
// to within spin of the due time and then yields in a loop. A Go timer
// parked in the netpoller wakes on a millisecond grain, so where the
// server leaves a CPU idle (serve-short) a sleeping generator would be
// most of every latency. Where busy executors hold both CPUs (serve-io
// in-process, gate-http in the workers) the scheduler checks timers
// constantly and sleeping is precise, while a spinning generator
// competes with the executors and runs tens of ms late.
type realClock struct {
	epoch time.Time
	spin  time.Duration
}

func (c realClock) now() time.Duration { return time.Since(c.epoch) }

func (c realClock) sleepUntil(t time.Duration) {
	for {
		d := t - c.now()
		switch {
		case d <= 0:
			return
		case d > c.spin:
			time.Sleep(d - c.spin)
		default:
			runtime.Gosched()
		}
	}
}

// poisson returns the intended send offsets of a Poisson arrival
// process of the given mean rate over d. The seed moves the arrivals;
// the rate stays what the workload fixes.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	out := make([]time.Duration, 0, int(rate*d.Seconds()*1.1)+16)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*1e9))
	}
}

// openLoop sends request i at start+arrivals[i] whatever the state of
// earlier requests. issue gets the intended send time, against which
// the caller times the request; it should return once the request is
// sent, but if it blocks the loop simply falls behind and every later
// request is timed from its own due time — a stall is charged to each
// request due during it, not to the one that met it. The result is how
// late each send left.
func openLoop(clk clock, start time.Duration, arrivals []time.Duration, issue func(i int, due time.Duration)) []time.Duration {
	late := make([]time.Duration, len(arrivals))
	for i, a := range arrivals {
		due := start + a
		clk.sleepUntil(due)
		late[i] = clk.now() - due
		issue(i, due)
	}
	return late
}

// closedWindow issues from one goroutine, keeping w requests
// outstanding while more(n) holds for the n issued so far. issue gets
// the request's slot (0..w-1, free again once done is called) and must
// arrange for done to be called once its request resolves. It returns
// the number issued, once every request has resolved.
func closedWindow(w int, more func(n int) bool, issue func(n, slot int, done func())) int {
	free := make(chan int, w) // the free slots; sized to hold all w
	for s := 0; s < w; s++ {
		free <- s
	}
	n := 0
	for ; more(n); n++ {
		s := <-free
		issue(n, s, func() { free <- s })
	}
	for i := 0; i < w; i++ {
		<-free
	}
	return n
}

// failure reasons counted against attempted operations.
const (
	failSaturated = iota
	failExpired
	failClosed
	failStatus
	failTimeout
	failWrong
	failOther
	numFail
)

var failNames = [numFail]string{"saturated", "expired", "closed", "non_200", "timeout", "bad_output", "other"}

// phase counts one timed phase's operations.
type phase struct {
	name      string
	sent, ok  atomic.Int64
	fails     [numFail]atomic.Int64
	mu        sync.Mutex
	badOutput []string
}

func (p *phase) fail(reason int) { p.fails[reason].Add(1) }

// wrong records an operation whose output failed its check; it also
// counts as a failed operation.
func (p *phase) wrong(msg string) {
	p.fail(failWrong)
	p.mu.Lock()
	if len(p.badOutput) < 5 {
		p.badOutput = append(p.badOutput, msg)
	}
	p.mu.Unlock()
}

func (p *phase) failed() int64 {
	var n int64
	for i := range p.fails {
		n += p.fails[i].Load()
	}
	return n
}

func (p *phase) report() map[string]any {
	fails := map[string]int64{}
	for i, name := range failNames {
		if v := p.fails[i].Load(); v > 0 {
			fails[name] = v
		}
	}
	r := map[string]any{"sent": p.sent.Load(), "succeeded": p.ok.Load(), "failed": p.failed(), "failures": fails}
	if len(p.badOutput) > 0 {
		r["bad_output"] = p.badOutput
	}
	return r
}
