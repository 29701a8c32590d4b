package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// stamps are one request's timestamps, as offsets from the run's epoch.
// Each field has a single writer; the pass reads them only after the
// request resolved. Zero means not recorded.
type stamps struct {
	seq int
	key string
	ok  bool

	due    time.Duration // intended send time (open loop) or issue time
	send   time.Duration // the client call began
	admit  time.Duration // lwt.Do / DoULT returned
	start  time.Duration // body began
	park   time.Duration // lwt.Sleep called
	unpark time.Duration // lwt.Sleep returned
	end    time.Duration // body returned
	gw0    time.Duration // Gateway.ServeHTTP called
	gw1    time.Duration // Gateway.ServeHTTP returned
	seen   time.Duration // the client saw the result
	micros int64         // the worker reply's own handler time
}

// target is a serving system under test.
type target interface {
	// send issues the request st describes (seq, due and key set) and
	// returns without waiting for its result; done runs once the client
	// has seen the result, with st filled in and st.ok set if the
	// request succeeded and its output checked out. traced asks for the
	// stamps beyond send and seen.
	send(st *stamps, ph *phase, traced bool, done func())
	// counters snapshots the layer counters that per-layer ratios are
	// taken from.
	counters() counters
	// poll samples the target once; every pass calls it each
	// pollEvery.
	poll()
	// layers adds the target's own per-layer metrics for a pass.
	layers(res *result, from, to counters, p *passOut)
	// close shuts the system down, checks what only a drained system
	// can show, and returns the peak RSS, in MB, of processes other
	// than this one.
	close(res *result) float64
}

// counters is a snapshot of cumulative counts, process-wide memory
// included.
type counters map[string]float64

func memCounters() counters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return counters{"mallocs": float64(m.Mallocs), "bytes": float64(m.TotalAlloc)}
}

func (c counters) merge(o counters) counters {
	for k, v := range o {
		c[k] = v
	}
	return c
}

// servingSpec fixes one serving workload.
type servingSpec struct {
	rate   float64       // open-loop mean arrivals per second
	window int           // closed-window requests kept outstanding
	keyed  float64       // share of requests carrying a key
	keys   uint64        // key space, drawn zipf(1.2)
	warmup int           // requests through each set-up before timing
	spin   time.Duration // see realClock
	open   func(cfg *config, clk realClock) (target, error)
}

const (
	// segments is how many times an untraced run sets the system up and
	// measures it, for cfg.seconds/segments each; every end-to-end
	// metric is the median over segments. On a 2-vCPU box the same
	// program settles into faster or slower modes from one set-up to
	// the next, so one long measurement would report whichever mode it
	// drew.
	segments        = 7
	openShare       = 0.6 // of a pass spent open-loop; the rest is the closed window
	closedSample    = 100_000
	closedTraceOne  = 64 // closed-window requests traced: one in this many
	closedTraceMax  = 20_000
	pollEvery       = time.Second // as the anomaly watchdog and scaler sample
	keyedSkew       = 1.2
	streamArrivals  = 1
	streamKeys      = 2
	streamReservoir = 3
)

// passOut is what one pass (an open-loop phase and a closed window)
// measured; latencies are in ms.
type passOut struct {
	open   *dist // open-loop latency from the due time
	late   *dist // open-loop lateness
	closed *dist // closed-window latency from issue, a uniform sample
	rps    float64
	traced []stamps
}

// newKeyDraw returns the run's key sequence: a spec.keyed share of
// requests carry one of spec.keys keys, drawn zipf(1.2); the rest are
// unkeyed ("").
func newKeyDraw(cfg *config, spec servingSpec) func() string {
	if spec.keyed == 0 {
		return func() string { return "" }
	}
	rng := cfg.rng(streamKeys)
	z := rand.NewZipf(rng, keyedSkew, 1, spec.keys-1)
	return func() string {
		if rng.Float64() >= spec.keyed {
			return ""
		}
		return "k" + strconv.FormatUint(z.Uint64(), 10)
	}
}

// serving is one run of a serving workload.
type serving struct {
	cfg       *config
	spec      servingSpec
	res       *result
	clk       realClock
	key       func() string
	arrivals  *rand.Rand
	resv      *rand.Rand
	warm      *phase
	setups    []float64
	otherRSS  float64 // peak RSS of other processes, MB
	open, cls *phase
}

// setup builds the system and runs its warm-up, timing both.
func (s *serving) setup() (target, error) {
	t0 := time.Now()
	t, err := s.spec.open(s.cfg, s.clk)
	if err != nil {
		return nil, err
	}
	closedPass(t, s.clk, s.spec.window, func(n int) bool { return n < s.spec.warmup }, s.key, s.warm, false, nil)
	if s.warm.failed() > 0 {
		s.close(t)
		return nil, fmt.Errorf("warm-up failed: %v", s.warm.report())
	}
	s.setups = append(s.setups, time.Since(t0).Seconds())
	return t, nil
}

func (s *serving) close(t target) { s.otherRSS = max(s.otherRSS, t.close(s.res)) }

// runServing measures a serving workload: with cfg.trace unset, seven
// segments of set-up, open loop and closed window for the end-to-end
// metrics; with it, one set-up measured by an untraced and a traced
// pass of half the time each, for per-layer metrics and the tracing
// overhead.
func runServing(cfg *config, spec servingSpec) (*result, error) {
	res := newResult()
	s := &serving{
		cfg: cfg, spec: spec, res: res,
		clk:      realClock{epoch: time.Now(), spin: spec.spin},
		key:      newKeyDraw(cfg, spec),
		arrivals: cfg.rng(streamArrivals),
		resv:     cfg.rng(streamReservoir),
		warm:     res.newPhase("warmup"),
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		s.open, s.cls = res.newPhase("open"), res.newPhase("closed")
		seg := map[string][]float64{}
		for i := 0; i < segments; i++ {
			tg, err := s.setup()
			if err != nil {
				return nil, err
			}
			p := s.pass(tg, d/segments, false)
			s.close(tg)
			for name, v := range map[string]float64{
				"latency_p50_ms": p.open.q(50), "latency_p99_ms": p.open.q(99),
				"job_ms_p50": p.closed.q(50), "job_ms_p99": p.closed.q(99),
				"peak_rps": p.rps, "units_per_s": p.rps,
				"loadgen.late_ms_p99": p.late.q(99), "loadgen.late_ms_max": p.late.max(),
			} {
				seg[name] = append(seg[name], v)
			}
		}
		for _, m := range [][2]string{
			{"latency_p50_ms", "ms"}, {"peak_rps", "1/s"}, {"units_per_s", "1/s"},
		} {
			res.set(m[0], m[1], median(seg[m[0]]))
		}
		res.info["segments"] = seg
	} else {
		zeroLayers(res)
		tg, err := s.setup()
		if err != nil {
			return nil, err
		}
		c0 := tg.counters().merge(memCounters())
		s.open, s.cls = res.newPhase("open-untraced"), res.newPhase("closed-untraced")
		p1 := s.pass(tg, d/2, false)
		c1 := tg.counters().merge(memCounters())
		s.open, s.cls = res.newPhase("open-traced"), res.newPhase("closed-traced")
		p2 := s.pass(tg, d/2, true)
		spans := servingSpans(p2.traced)
		self := selfTimes(spans)
		st := summarize(spans, self)
		res.info["spans"] = spanReport(st)
		if err := writeSpans(spanFile(cfg), spans, self); err != nil {
			s.close(tg)
			return nil, err
		}
		res.set("loadgen.late_ms_p99", "ms", p2.late.q(99))
		res.set("loadgen.late_ms_max", "ms", p2.late.max())
		res.set("trace.overhead_pct", "%", 100*(p2.open.q(50)-p1.open.q(50))/p1.open.q(50))
		res.set("e2e.latency_p99_ms", "ms", p1.open.q(99))
		res.set("e2e.job_ms_p50", "ms", p1.closed.q(50))
		res.set("e2e.job_ms_p99", "ms", p1.closed.q(99))
		spanMetric(res, st, "serve.admit", "serve.admit_ns", "ns", 1e3, 50, 99)
		spanMetric(res, st, "serve.queue", "serve.queue_us", "us", 1, 50, 99)
		spanMetric(res, st, "serve.run", "serve.run_us", "us", 1, 50)
		spanMetric(res, st, "serve.wake", "serve.wake_us", "us", 1, 50, 99)
		spanMetric(res, st, "cluster.serve", "cluster.serve_us", "us", 1, 50, 99)
		if sl := st["aio.sleep"]; sl != nil {
			res.set("aio.sleep_overshoot_us_p50", "us", sl.dur.q(50)-us(ioSleep))
			res.set("aio.sleep_overshoot_us_p99", "us", sl.dur.q(99)-us(ioSleep))
		}
		if done := c1["completed"] - c0["completed"]; done > 0 {
			res.set("serve.allocs_per_req", "count", (c1["mallocs"]-c0["mallocs"])/done)
			res.set("serve.bytes_per_req", "B", (c1["bytes"]-c0["bytes"])/done)
		}
		tg.layers(res, c0, c1, &p2)
		s.close(tg)
	}
	res.info["setup_s_each"] = s.setups
	res.set("setup_s", "s", median(s.setups))
	res.set("max_rss_mb", "MB", maxRSSMB()+s.otherRSS)
	for _, p := range res.phases {
		res.check(len(p.badOutput) == 0, "%s: wrong outputs: %v", p.name, p.badOutput)
	}
	return res, nil
}

// spanMetric reports percentiles of one span name's durations.
func spanMetric(res *result, st map[string]*spanStats, span, metric, unit string, scale float64, ps ...float64) {
	s := st[span]
	if s == nil {
		return
	}
	for _, p := range ps {
		res.set(metric+"_p"+strconv.Itoa(int(p)), unit, s.dur.q(p)*scale)
	}
}

// pass runs one open-loop phase and one closed window over d.
func (s *serving) pass(tg target, d time.Duration, traced bool) passOut {
	var out passOut
	stop := make(chan struct{})
	// The poller runs in traced and untraced passes alike, so the
	// tracing overhead compares like with like.
	var polled sync.WaitGroup
	polled.Add(1)
	go func() {
		defer polled.Done()
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				tg.poll()
			}
		}
	}()

	// Open loop: Poisson arrivals, each timed from its due time.
	openD := time.Duration(float64(d) * openShare)
	sched := poisson(s.arrivals, s.spec.rate, openD)
	sts := make([]stamps, len(sched))
	for i := range sts {
		sts[i] = stamps{seq: i, key: s.key()}
	}
	var wg sync.WaitGroup
	late := openLoop(s.clk, s.clk.now()+10*time.Millisecond, sched, func(i int, due time.Duration) {
		st := &sts[i]
		st.due = due
		s.open.sent.Add(1)
		wg.Add(1)
		tg.send(st, s.open, traced, wg.Done)
	})
	wg.Wait()
	out.open, out.late = &dist{}, &dist{}
	for i, st := range sts {
		if st.ok {
			out.open.add(ms(st.seen - st.due))
		}
		out.late.add(ms(late[i]))
	}
	if traced {
		out.traced = sts
	}

	// Closed window: one submitter keeps spec.window requests out.
	until := time.Now().Add(d - openD)
	more := func(int) bool { return time.Now().Before(until) }
	ok0, t0 := s.cls.ok.Load(), time.Now()
	lat, kept := closedPass(tg, s.clk, s.spec.window, more, s.key, s.cls, traced, s.resv)
	out.closed = lat.dist()
	out.rps = float64(s.cls.ok.Load()-ok0) / time.Since(t0).Seconds()
	out.traced = append(out.traced, kept...)
	close(stop)
	polled.Wait()
	return out
}

// closedPass keeps w requests outstanding from one submitter while
// more holds. Latencies go into a fixed-size reservoir drawn with resv
// (none when resv is nil), so memory does not grow with throughput;
// with traced, one request in closedTraceOne keeps its stamps.
func closedPass(tg target, clk realClock, w int, more func(int) bool, key func() string, ph *phase, traced bool, resv *rand.Rand) (*reservoir, []stamps) {
	var lat *reservoir
	if resv != nil {
		lat = newReservoir(closedSample, resv)
	}
	var kept []stamps
	slots := make([]stamps, w)
	var mu sync.Mutex
	closedWindow(w, more, func(n, slot int, done func()) {
		st := &slots[slot]
		*st = stamps{seq: n, key: key()}
		st.due = clk.now()
		keep := traced && n%closedTraceOne == 0
		ph.sent.Add(1)
		tg.send(st, ph, keep, func() {
			if st.ok && lat != nil {
				mu.Lock()
				lat.add(ms(st.seen - st.send))
				if keep && len(kept) < closedTraceMax {
					kept = append(kept, *st)
				}
				mu.Unlock()
			}
			done()
		})
	})
	return lat, kept
}

// servingSpans turns traced requests' stamps into spans: a root per
// request from its due time to the client seeing the result, with a
// child for each layer the request crossed.
func servingSpans(sts []stamps) []span {
	var out []span
	add := func(name string, parent, req int, a, b time.Duration) int {
		if b < a {
			b = a
		}
		out = append(out, span{name: name, parent: parent, req: req, start: a, end: b})
		return len(out) - 1
	}
	for _, st := range sts {
		if !st.ok {
			continue
		}
		root := add("request", -1, st.seq, st.due, st.seen)
		add("loadgen.late", root, st.seq, st.due, st.send)
		if st.admit != 0 {
			add("serve.admit", root, st.seq, st.send, st.admit)
			add("serve.queue", root, st.seq, st.admit, max(st.admit, st.start))
			run := add("serve.run", root, st.seq, st.start, st.end)
			if st.park != 0 {
				add("aio.sleep", run, st.seq, st.park, st.unpark)
			}
			add("serve.wake", root, st.seq, st.end, st.seen)
		}
		if st.gw1 != 0 {
			http := add("loadgen.http", root, st.seq, st.send, st.seen)
			add("cluster.serve", http, st.seq, st.gw0, st.gw1)
		}
	}
	return out
}
