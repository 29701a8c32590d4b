package main

import (
	"fmt"
	"sync/atomic"
	"time"

	lwt "repro"
	"repro/internal/blas"
)

// A dag job is a fib(24) ULT tree with cutoff 12 (610 ULTs) followed by
// a 256-chunk TaskletCreateBulk/JoinAll Sscal over 64 K floats: 866
// work units, with the runtime's create/join/dispatch doing nearly all
// of the work (sequential fib(24) is a small share of the job).
const (
	dagFibN    = 24
	dagFib     = 46368 // fib(24)
	dagCutoff  = 12
	dagChunks  = 256
	dagLen     = 64 * 1024
	dagWarmup  = 30     // jobs run by each set-up before timing
	dagTraceOn = 16     // traced pass: one job in this many records spans
	dagSpanCap = 250000 // spans kept by a traced pass
)

// dagSpawns is how many ULTs fib(n) creates below its root.
func dagSpawns(n int) int {
	if n < dagCutoff {
		return 0
	}
	return 1 + dagSpawns(n-1) + dagSpawns(n-2)
}

var dagUnits = 1 + dagSpawns(dagFibN) + dagChunks

type dagRun struct {
	rt     *lwt.Runtime
	epoch  time.Time
	data   []float32
	fns    []func()
	factor float32 // what the next fan-out scales by; alternates 2 and 0.5
	jobs   int     // jobs run; data is doubled after an odd number
	// ran counts the work-unit bodies the runtime ran during a traced
	// job; nil outside one, so untraced jobs run exactly the measured
	// work. The count is taken inside each body, not beside the create
	// call, so a unit the runtime lost or ran twice shows.
	ran *atomic.Int64
}

// note counts one work-unit body run, during a traced job.
func (d *dagRun) note() {
	if c := d.ran; c != nil {
		c.Add(1)
	}
}

func openDag(epoch time.Time) (*dagRun, error) {
	rt, err := lwt.Open(lwt.Config{Backend: "argobots", Executors: 2})
	if err != nil {
		return nil, err
	}
	d := &dagRun{rt: rt, epoch: epoch, data: make([]float32, dagLen), factor: 2}
	for j := range d.data {
		d.data[j] = float32(j%1024) + 1
	}
	chunk := dagLen / dagChunks
	for k := 0; k < dagChunks; k++ {
		lo, hi := k*chunk, (k+1)*chunk
		d.fns = append(d.fns, func() {
			d.note()
			blas.SscalRange(d.data, d.factor, lo, hi)
		})
	}
	return d, nil
}

func (d *dagRun) now() time.Duration { return time.Since(d.epoch) }

// fib computes fib(n) with a ULT per left branch at or above the
// cutoff; with log set it records each ULTCreate and Join under root.
func (d *dagRun) fib(c lwt.Ctx, n int, log *spanLog, root, req int) uint64 {
	if n < dagCutoff {
		return fibSeq(n)
	}
	var left uint64
	var t0 time.Duration
	if log != nil {
		t0 = d.now()
	}
	h := c.ULTCreate(func(cc lwt.Ctx) {
		d.note()
		left = d.fib(cc, n-1, log, root, req)
	})
	if log != nil {
		log.add(span{name: "core.ult_create", parent: root, req: req, start: t0, end: d.now()})
	}
	right := d.fib(c, n-2, log, root, req)
	if log != nil {
		t0 = d.now()
	}
	c.Join(h)
	if log != nil {
		log.add(span{name: "core.join", parent: root, req: req, start: t0, end: d.now()})
	}
	return left + right
}

func fibSeq(n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	return fibSeq(n-1) + fibSeq(n-2)
}

// job runs one job, checks it, and returns its makespan. With log set
// the job records a root span and a span around every runtime call.
func (d *dagRun) job(ph *phase, log *spanLog) time.Duration {
	ph.sent.Add(1)
	req := d.jobs
	root := -1
	rec := func(name string, t0 time.Duration) {
		if log != nil {
			log.add(span{name: name, parent: root, req: req, start: t0, end: d.now()})
		}
	}
	var ran atomic.Int64
	t0 := d.now()
	if log != nil {
		d.ran = &ran
		root = log.add(span{name: "job", parent: -1, req: req, start: t0})
	}
	var fib uint64
	h := d.rt.ULTCreate(func(c lwt.Ctx) {
		d.note()
		fib = d.fib(c, dagFibN, log, root, req)
	})
	rec("core.ult_create", t0)
	t := d.now()
	d.rt.Join(h)
	rec("core.join", t)
	t = d.now()
	hs := d.rt.TaskletCreateBulk(d.fns)
	rec("core.bulk_create", t)
	t = d.now()
	d.rt.JoinAll(hs)
	rec("core.joinall", t)
	t1 := d.now()
	if root >= 0 {
		log.spans[root].end = t1
	}
	d.ran = nil

	d.jobs++
	d.factor = 1 / d.factor
	want := float32(1)
	if d.jobs%2 == 1 {
		want = 2
	}
	switch {
	case fib != dagFib:
		ph.wrong(fmt.Sprintf("job %d: fib(%d) = %d, want %d", req, dagFibN, fib, dagFib))
	case !scaledRepeat(d.data, want):
		ph.wrong(fmt.Sprintf("job %d: Sscal fan-out result wrong", req))
	case log != nil && ran.Load() != int64(dagUnits):
		ph.wrong(fmt.Sprintf("job %d: %d work units ran, want %d", req, ran.Load(), dagUnits))
	default:
		ph.ok.Add(1)
	}
	return t1 - t0
}

// scaledRepeat checks every element against the data's 1024-periodic
// initial values times a.
func scaledRepeat(v []float32, a float32) bool {
	for j := range v {
		if v[j] != a*(float32(j%1024)+1) {
			return false
		}
	}
	return true
}

// dagPass is what one closed-loop pass measured.
type dagPass struct {
	makespan dist // ms, every job
	plain    dist // ms, jobs that recorded no spans
	traced   dist // ms, jobs that recorded spans
	jobs     int
	rate     float64 // jobs per second
}

// pass runs jobs back to back for dur; with log set one job in
// dagTraceOn records spans.
func (d *dagRun) pass(ph *phase, dur time.Duration, log *spanLog) dagPass {
	var p dagPass
	t0 := time.Now()
	until := t0.Add(dur)
	for time.Now().Before(until) {
		var l *spanLog
		if log != nil && p.jobs%dagTraceOn == 0 {
			l = log
		}
		m := ms(d.job(ph, l))
		p.makespan.add(m)
		if l != nil {
			p.traced.add(m)
		} else {
			p.plain.add(m)
		}
		p.jobs++
	}
	p.rate = float64(p.jobs) / time.Since(t0).Seconds()
	return p
}

// runDag: closed loop, one caller, lwt.Open argobots with 2 executors;
// serve, aio and cluster are bypassed. An untraced run measures
// `segments` set-ups, as the serving workloads do; a traced run
// measures one set-up untraced and then traced.
func runDag(cfg *config) (*result, error) {
	res := newResult()
	epoch := time.Now()
	warm := res.newPhase("warmup")
	var setups []float64
	setup := func() (*dagRun, error) {
		t0 := time.Now()
		d, err := openDag(epoch)
		if err != nil {
			return nil, err
		}
		for j := 0; j < dagWarmup; j++ {
			d.job(warm, nil)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return d, nil
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		ph := res.newPhase("closed")
		seg := map[string][]float64{}
		for i := 0; i < segments; i++ {
			d, err := setup()
			if err != nil {
				return nil, err
			}
			p := d.pass(ph, dur/segments, nil)
			d.rt.Finalize()
			// One caller's next job is due when its last one ends, so on
			// this workload latency from the due time is the makespan.
			for name, v := range map[string]float64{
				"job_ms_p50": p.makespan.q(50), "job_ms_p99": p.makespan.q(99),
				"peak_rps": p.rate, "units_per_s": p.rate * float64(dagUnits),
			} {
				seg[name] = append(seg[name], v)
			}
		}
		res.set("latency_p50_ms", "ms", median(seg["job_ms_p50"]))
		res.set("peak_rps", "1/s", median(seg["peak_rps"]))
		res.set("units_per_s", "1/s", median(seg["units_per_s"]))
		res.info["segments"] = seg
	} else {
		zeroLayers(res)
		d, err := setup()
		if err != nil {
			return nil, err
		}
		defer d.rt.Finalize()
		s0, m0 := d.rt.SchedStats(), memCounters()
		p1 := d.pass(res.newPhase("closed-untraced"), dur/2, nil)
		s1, m1 := d.rt.SchedStats(), memCounters()
		log := newSpanLog(dagSpanCap)
		p2 := d.pass(res.newPhase("closed-traced"), dur/2, log)
		spans := log.all()
		self := selfTimes(spans)
		st := summarize(spans, self)
		res.info["spans"] = spanReport(st)
		res.info["spans_dropped"] = log.dropped()
		if err := writeSpans(spanFile(cfg), spans, self); err != nil {
			return nil, err
		}
		spanMetric(res, st, "core.ult_create", "core.ult_create_ns", "ns", 1e3, 50)
		spanMetric(res, st, "core.join", "core.join_ns", "ns", 1e3, 50)
		spanMetric(res, st, "core.bulk_create", "core.bulk_create_us", "us", 1, 50)
		spanMetric(res, st, "core.joinall", "core.joinall_us", "us", 1, 50)
		jobs := float64(p1.jobs)
		res.set("core.sched_pushes_per_job", "count", float64(s1.Pushes-s0.Pushes)/jobs)
		res.set("core.sched_steals_per_job", "count", float64(s1.Steals-s0.Steals)/jobs)
		res.set("core.sched_empty_pops_per_job", "count", float64(s1.EmptyPops-s0.EmptyPops)/jobs)
		res.set("core.sched_contended_per_job", "count", float64(s1.Contended-s0.Contended)/jobs)
		if tries := float64(s1.Pops-s0.Pops) + float64(s1.Steals-s0.Steals) + float64(s1.EmptyPops-s0.EmptyPops); tries > 0 {
			res.set("core.empty_pop_ratio", "ratio", float64(s1.EmptyPops-s0.EmptyPops)/tries)
		}
		res.set("core.allocs_per_unit", "count", (m1["mallocs"]-m0["mallocs"])/(jobs*float64(dagUnits)))
		res.set("e2e.latency_p99_ms", "ms", p1.makespan.q(99))
		res.set("e2e.job_ms_p50", "ms", p1.makespan.q(50))
		res.set("e2e.job_ms_p99", "ms", p1.makespan.q(99))
		// Traced and untraced jobs interleave in the traced pass, so
		// host drift over the run falls on both sides alike.
		res.set("trace.overhead_pct", "%", 100*(p2.traced.q(50)-p2.plain.q(50))/p2.plain.q(50))
	}
	res.info["setup_s_each"] = setups
	res.set("setup_s", "s", median(setups))
	res.set("max_rss_mb", "MB", maxRSSMB())
	for _, p := range res.phases {
		res.check(len(p.badOutput) == 0, "%s: wrong outputs: %v", p.name, p.badOutput)
	}
	return res, nil
}
