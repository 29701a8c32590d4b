package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	lwt "repro"
	"repro/internal/blas"
)

const (
	vecLen  = 256                  // Sscal length of one serving request
	ioSleep = 5 * time.Millisecond // serve-io's parked wait
)

// serve-short: one shard, one executor, an unkeyed ~1 µs tasklet per
// request, so admission, queueing, pump dispatch, the Future and
// allocation are the whole latency.
func runServeShort(cfg *config) (*result, error) {
	return runServing(cfg, servingSpec{
		rate: 5000, window: 64, warmup: 20_000, spin: 2 * time.Millisecond,
		open: func(cfg *config, clk realClock) (target, error) {
			return openInproc(clk, lwt.ServeOptions{Backend: "argobots", Shards: 1, Threads: 1}, false, 0)
		},
	})
}

// serve-io: stackful, keyed, stolen, deadline-armed requests that park
// on the aio reactor for 5 ms between two Sscal passes.
func runServeIO(cfg *config) (*result, error) {
	return runServing(cfg, servingSpec{
		rate: 1000, window: 256, keyed: 0.5, keys: 1024, warmup: 2000,
		open: func(cfg *config, clk realClock) (target, error) {
			return openInproc(clk, lwt.ServeOptions{
				Backend: "argobots", Shards: 2, Threads: 1, Steal: true, MaxInFlight: 64,
			}, true, time.Second)
		},
	})
}

// inproc serves requests through an in-process lwt.Server.
type inproc struct {
	srv      *lwt.Server
	sub      *lwt.Submitter
	clk      realClock
	ult      bool          // DoULT bodies that sleep, else Do tasklets
	deadline time.Duration // Req.Deadline after the due time; 0: none
	vecs     sync.Pool

	mu        sync.Mutex // guards the poll samples
	snapshots dist       // Server.Metrics() call times (us)
	parkedMax int
}

func openInproc(clk realClock, opts lwt.ServeOptions, ult bool, deadline time.Duration) (*inproc, error) {
	srv, err := lwt.NewServer(opts)
	if err != nil {
		return nil, err
	}
	t := &inproc{srv: srv, sub: srv.Submitter(), clk: clk, ult: ult, deadline: deadline}
	t.vecs.New = func() any { v := make([]float32, vecLen); return &v }
	return t, nil
}

// scale is what a request body multiplies its vector by.
func (t *inproc) scale() float32 {
	if t.ult {
		return 6 // Sscal by 2, park, Sscal by 3
	}
	return 2
}

func (t *inproc) send(st *stamps, ph *phase, traced bool, done func()) {
	vp := t.vecs.Get().(*[]float32)
	v := *vp
	base := float32(st.seq % 997)
	for j := range v {
		v[j] = base + float32(j)
	}
	req := lwt.Req{Key: st.key, NonBlocking: true}
	if t.deadline > 0 {
		req.Deadline = t.clk.epoch.Add(st.due + t.deadline)
	}
	now := t.clk.now
	st.send = now()
	var f *lwt.Future[float32]
	var err error
	if t.ult {
		f, err = lwt.DoULT(t.sub, nil, func(c lwt.Ctx) (float32, error) {
			if traced {
				st.start = now()
			}
			blas.Sscal(v, 2)
			if traced {
				st.park = now()
			}
			if err := lwt.Sleep(c, ioSleep); err != nil {
				return 0, err
			}
			if traced {
				st.unpark = now()
			}
			blas.Sscal(v, 3)
			if traced {
				st.end = now()
			}
			return v[vecLen-1], nil
		}, req)
	} else {
		f, err = lwt.Do(t.sub, nil, func() (float32, error) {
			if traced {
				st.start = now()
			}
			blas.Sscal(v, 2)
			if traced {
				st.end = now()
			}
			return v[vecLen-1], nil
		}, req)
	}
	if traced {
		st.admit = now()
	}
	if err != nil {
		ph.fail(classify(err))
		t.vecs.Put(vp)
		done()
		return
	}
	// One waiter per request: results are seen as they resolve, never
	// behind an earlier, slower request.
	go func() {
		<-f.Done()
		st.seen = now()
		val, err := f.Wait(context.Background())
		switch {
		case err != nil:
			ph.fail(classify(err))
		case !scaled(v, base, t.scale()) || val != v[vecLen-1]:
			ph.wrong(fmt.Sprintf("request %d: Sscal result wrong", st.seq))
		default:
			st.ok = true
			ph.ok.Add(1)
		}
		t.vecs.Put(vp)
		done()
	}()
}

// scaled checks v[j] == a*(base+j) for every j; both factors are small
// integers, so the products are exact in float32.
func scaled(v []float32, base, a float32) bool {
	for j := range v {
		if v[j] != a*(base+float32(j)) {
			return false
		}
	}
	return true
}

// classify maps a submission or result error to a failure reason.
func classify(err error) int {
	switch {
	case errors.Is(err, lwt.ErrSaturated):
		return failSaturated
	case errors.Is(err, lwt.ErrExpired), errors.Is(err, lwt.ErrCanceled):
		return failExpired
	case errors.Is(err, lwt.ErrServerClosed):
		return failClosed
	case errors.Is(err, context.DeadlineExceeded):
		return failTimeout
	}
	return failOther
}

func (t *inproc) counters() counters {
	m := t.srv.Metrics()
	return counters{
		"submitted": float64(m.Submitted), "completed": float64(m.Completed),
		"saturated": float64(m.Saturated), "expired": float64(m.Expired), "steals": float64(m.Steals),
	}
}

// poll takes one Server.Metrics() snapshot, as the anomaly watchdog and
// the scale controller do each tick, timing it and sampling IOParked.
func (t *inproc) poll() {
	t0 := time.Now()
	m := t.srv.Metrics()
	d := time.Since(t0)
	t.mu.Lock()
	t.snapshots.add(us(d))
	t.parkedMax = max(t.parkedMax, m.IOParked)
	t.mu.Unlock()
}

func (t *inproc) layers(res *result, from, to counters, _ *passOut) {
	d := func(k string) float64 { return to[k] - from[k] }
	if n := d("submitted") + d("saturated"); n > 0 {
		res.set("serve.saturated_ratio", "ratio", d("saturated")/n)
	}
	if n := d("submitted"); n > 0 {
		res.set("serve.expired_ratio", "ratio", d("expired")/n)
	}
	if n := d("completed"); n > 0 {
		res.set("serve.steals_per_req", "count", d("steals")/n)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.snapshots.xs) > 0 {
		res.set("serve.snapshot_us_p50", "us", t.snapshots.q(50))
	}
	res.set("aio.parked_max", "count", float64(t.parkedMax))
}

// close drains the server and checks the drain identity: every
// accepted request completed, was rejected at shutdown, or expired.
func (t *inproc) close(res *result) float64 {
	t.srv.Close()
	m := t.srv.Metrics()
	res.check(m.Submitted == m.Completed+m.Rejected+m.Expired,
		"drain identity: submitted %d != completed %d + rejected %d + expired %d",
		m.Submitted, m.Completed, m.Rejected, m.Expired)
	return 0
}
