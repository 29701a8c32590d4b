// Package omplwt is the paper's conclusion made code: "we plan to design
// and implement a common API for the LWT libraries. This API could be
// placed under several high-level PMs, such as OpenMP or OmpSs, that are
// currently implemented on top of Pthreads" (§X). It implements the
// OpenMP programming model's core directives — parallel for (with static,
// dynamic and guided schedules), single-region task parallelism,
// taskwait, reductions and critical sections — on top of the unified LWT
// API instead of OS threads, over any registered backend.
//
// The benchmark suite compares this layer on an LWT backend against the
// Pthreads-style OpenMP emulation (internal/openmp), reproducing the
// paper's headline: directive-level programs gain from an LWT substrate
// precisely in task and nested parallelism.
package omplwt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Schedule selects the loop iteration-distribution policy, mirroring
// OpenMP's schedule clause.
type Schedule int

const (
	// Static divides iterations into one contiguous chunk per thread.
	Static Schedule = iota
	// Dynamic hands out fixed-size chunks on demand.
	Dynamic
	// Guided hands out exponentially shrinking chunks on demand.
	Guided
)

// String names the schedule as the clause would.
func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	default:
		return fmt.Sprintf("schedule(%d)", int(s))
	}
}

// Runtime is an OpenMP-style programming layer over one LWT backend.
type Runtime struct {
	r       *core.Runtime
	nthread int
}

// Config parameterizes Open; it is the unified API's configuration, so
// the directive layer inherits scheduler selection and capability
// negotiation. The team size of parallel constructs is the executor
// count.
type Config = core.Config

// Open builds the layer over a unified-API backend opened from the
// configuration (the v2 constructor). The team size is the resolved
// executor count — not the backend's placement-domain count, which can
// be smaller (Qthreads' per-node layout has one shepherd over many
// workers).
func Open(cfg Config) (*Runtime, error) {
	r, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &Runtime{r: r, nthread: r.Config().Executors}, nil
}

// MustOpen is Open for known-good configurations; it panics on error.
func MustOpen(cfg Config) *Runtime {
	rt, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// Close finalizes the underlying backend.
func (rt *Runtime) Close() { rt.r.Finalize() }

// NumThreads reports the team size used by parallel constructs.
func (rt *Runtime) NumThreads() int { return rt.nthread }

// Backend reports the underlying backend name.
func (rt *Runtime) Backend() string { return rt.r.Name() }

// taskList tracks spawned tasks for TaskWait; all members of one
// parallel region share it.
type taskList struct {
	mu sync.Mutex
	hs []core.Handle
}

func (tl *taskList) add(h core.Handle) {
	tl.mu.Lock()
	tl.hs = append(tl.hs, h)
	tl.mu.Unlock()
}

func (tl *taskList) drain() []core.Handle {
	tl.mu.Lock()
	hs := tl.hs
	tl.hs = nil
	tl.mu.Unlock()
	return hs
}

// Region is the per-construct context handed to parallel bodies; it
// plays the role TeamCtx plays in the Pthreads-style runtime, but its
// "threads" are ULTs.
type Region struct {
	rt    *Runtime
	ctx   core.Ctx // nil when the body runs on the master (outside a ULT)
	tasks *taskList
}

// addTask records a spawned task for TaskWait.
func (rg *Region) addTask(h core.Handle) {
	if rg.tasks == nil {
		rg.tasks = &taskList{}
	}
	rg.tasks.add(h)
}

// drainTasks removes and returns all recorded tasks.
func (rg *Region) drainTasks() []core.Handle {
	if rg.tasks == nil {
		return nil
	}
	return rg.tasks.drain()
}

// join waits on a handle with the right mechanism for the caller's
// context (cooperative inside a ULT, backend join on the master).
func (rg *Region) join(h core.Handle) {
	if rg.ctx != nil {
		rg.ctx.Join(h)
		return
	}
	rg.rt.r.Join(h)
}

// spawn creates a ULT from the correct context.
func (rg *Region) spawn(fn func(core.Ctx)) core.Handle {
	if rg.ctx != nil {
		return rg.ctx.ULTCreate(fn)
	}
	return rg.rt.r.ULTCreate(fn)
}

// spawnLeaf creates a tasklet (or fallback) from the correct context.
func (rg *Region) spawnLeaf(fn func()) core.Handle {
	if rg.ctx != nil {
		return rg.ctx.TaskletCreate(fn)
	}
	return rg.rt.r.TaskletCreate(fn)
}

// spawnLeafBulk creates one leaf work unit per body. From the master it
// rides the unified bulk-creation path — one batched pool insertion and
// one executor wake for the whole team — which is what removes the
// per-iteration submission cost from the loop and task figures; inside a
// ULT it degrades to a create loop (nested creations are already local
// to the running executor).
func (rg *Region) spawnLeafBulk(fns []func()) []core.Handle {
	if rg.ctx == nil {
		return rg.rt.r.TaskletCreateBulk(fns)
	}
	hs := make([]core.Handle, len(fns))
	for i, fn := range fns {
		hs[i] = rg.ctx.TaskletCreate(fn)
	}
	return hs
}

// ParallelFor is #pragma omp parallel for with the given schedule: the
// iteration space [0, n) is executed by a team of NumThreads work units.
// The call returns when every iteration has completed (the implicit
// barrier).
func (rt *Runtime) ParallelFor(n int, sched Schedule, chunkSize int, body func(i int)) {
	root := &Region{rt: rt}
	root.parallelFor(n, sched, chunkSize, body)
}

func (rg *Region) parallelFor(n int, sched Schedule, chunkSize int, body func(i int)) {
	rt := rg.rt
	k := rt.nthread
	if n <= 0 {
		return
	}
	switch sched {
	case Static:
		fns := make([]func(), 0, k)
		for t := 0; t < k; t++ {
			lo, hi := staticChunk(n, k, t)
			if lo == hi {
				continue
			}
			fns = append(fns, func() {
				for i := lo; i < hi; i++ {
					body(i)
				}
			})
		}
		for _, h := range rg.spawnLeafBulk(fns) {
			rg.join(h)
		}
	case Dynamic, Guided:
		if chunkSize < 1 {
			chunkSize = 1
		}
		var next atomic.Int64
		remaining := func() int { return n - int(next.Load()) }
		worker := func() {
			for {
				size := chunkSize
				if sched == Guided {
					// Guided: chunk ~ remaining / team, never below
					// chunkSize.
					if g := remaining() / k; g > size {
						size = g
					}
				}
				lo := int(next.Add(int64(size))) - size
				if lo >= n {
					return
				}
				hi := lo + size
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					body(i)
				}
			}
		}
		fns := make([]func(), k)
		for t := range fns {
			fns[t] = worker
		}
		for _, h := range rg.spawnLeafBulk(fns) {
			rg.join(h)
		}
	default:
		panic("omplwt: unknown schedule")
	}
}

// staticChunk computes thread t's half-open share of n items.
func staticChunk(n, k, t int) (lo, hi int) {
	base, rem := n/k, n%k
	lo = t*base + min(t, rem)
	hi = lo + base
	if t < rem {
		hi++
	}
	return
}

// Parallel is #pragma omp parallel: body runs once per team member, each
// as a ULT; tid identifies the member. The implicit barrier (join of all
// members, then of their outstanding tasks) ends the region.
func (rt *Runtime) Parallel(body func(rg *Region, tid int)) {
	shared := &taskList{}
	fns := make([]func(core.Ctx), rt.nthread)
	for t := 0; t < rt.nthread; t++ {
		t := t
		fns[t] = func(c core.Ctx) {
			body(&Region{rt: rt, ctx: c, tasks: shared}, t)
		}
	}
	// The team spawns as one bulk creation: a single batched pool
	// insertion and one executor wake open the region.
	hs := rt.r.ULTCreateBulk(fns)
	for _, h := range hs {
		rt.r.Join(h)
	}
	// Region-end task drain. Tasks may spawn further tasks into the
	// shared list, so drain until it stays empty.
	for {
		ts := shared.drain()
		if len(ts) == 0 {
			return
		}
		for _, h := range ts {
			rt.r.Join(h)
		}
	}
}

// Single is #pragma omp single: body runs only for tid 0. (The unified
// layer has no thread identity beyond the Parallel construct, so the
// caller passes its tid.)
func (rg *Region) Single(tid int, body func()) {
	if tid == 0 {
		body()
	}
}

// Task is #pragma omp task: fn becomes a tasklet on the LWT backend and
// is tracked for TaskWait. Unlike the Pthreads-style runtimes there is
// no cutoff: LWT work units are cheap enough that the paper's libraries
// queue everything (§VII-B's cutoff exists because OS-thread runtimes
// cannot afford that).
func (rg *Region) Task(fn func()) {
	rg.addTask(rg.spawnLeaf(fn))
}

// TaskULT is a task that itself needs to yield or spawn (a stackful
// task); it costs a ULT instead of a tasklet. The child region shares
// this region's task list, so tasks it spawns are covered by the same
// TaskWait/region barrier.
func (rg *Region) TaskULT(fn func(rg *Region)) {
	rt := rg.rt
	tasks := rg.tasks
	rg.addTask(rg.spawn(func(c core.Ctx) {
		fn(&Region{rt: rt, ctx: c, tasks: tasks})
	}))
}

// TaskWait is #pragma omp taskwait: joins every task spawned through
// this region so far.
func (rg *Region) TaskWait() {
	for _, h := range rg.drainTasks() {
		rg.join(h)
	}
}

// ParallelFor runs a nested parallel for from inside a region — the
// Listing 3 inner pragma, which on an LWT substrate creates work units
// rather than thread teams (the mechanism behind Figure 7's 48–130×).
func (rg *Region) ParallelFor(n int, sched Schedule, chunkSize int, body func(i int)) {
	rg.parallelFor(n, sched, chunkSize, body)
}

// TaskLoop is #pragma omp taskloop (OpenMP 4.5, the specification the
// paper cites): the iteration space is divided into grainsize-sized
// chunks, each spawned as a task, and all are joined before returning.
func (rg *Region) TaskLoop(n, grainsize int, body func(i int)) {
	if grainsize < 1 {
		grainsize = 1
	}
	fns := make([]func(), 0, (n+grainsize-1)/grainsize)
	for lo := 0; lo < n; lo += grainsize {
		lo := lo
		hi := lo + grainsize
		if hi > n {
			hi = n
		}
		fns = append(fns, func() {
			for i := lo; i < hi; i++ {
				body(i)
			}
		})
	}
	for _, h := range rg.spawnLeafBulk(fns) {
		rg.join(h)
	}
}

// Critical executes fn under the runtime's global critical-section lock
// (#pragma omp critical with the anonymous name).
type criticalState struct{ mu sync.Mutex }

var critical criticalState

// Critical runs fn in the (process-global) anonymous critical section.
func (rg *Region) Critical(fn func()) {
	critical.mu.Lock()
	defer critical.mu.Unlock()
	fn()
}

// ReduceFloat64 is a parallel-for with a float64 reduction clause
// (reduction(op:var)): each team work unit accumulates into a private
// partial; the partials are combined with op at the implicit barrier.
// op must be associative and identity its neutral element.
func (rt *Runtime) ReduceFloat64(n int, sched Schedule, chunkSize int,
	op func(a, b float64) float64, identity float64,
	body func(i int) float64) float64 {

	k := rt.nthread
	partials := make([]float64, k)
	for i := range partials {
		partials[i] = identity
	}
	rg := &Region{rt: rt}
	if n > 0 {
		switch sched {
		case Static:
			fns := make([]func(), 0, k)
			for t := 0; t < k; t++ {
				t := t
				lo, hi := staticChunk(n, k, t)
				if lo == hi {
					continue
				}
				fns = append(fns, func() {
					acc := identity
					for i := lo; i < hi; i++ {
						acc = op(acc, body(i))
					}
					partials[t] = acc
				})
			}
			for _, h := range rg.spawnLeafBulk(fns) {
				rg.join(h)
			}
		case Dynamic, Guided:
			if chunkSize < 1 {
				chunkSize = 1
			}
			var next atomic.Int64
			fns := make([]func(), k)
			for t := 0; t < k; t++ {
				t := t
				fns[t] = func() {
					acc := identity
					for {
						size := chunkSize
						if sched == Guided {
							if g := (n - int(next.Load())) / k; g > size {
								size = g
							}
						}
						lo := int(next.Add(int64(size))) - size
						if lo >= n {
							break
						}
						hi := lo + size
						if hi > n {
							hi = n
						}
						for i := lo; i < hi; i++ {
							acc = op(acc, body(i))
						}
					}
					partials[t] = acc
				}
			}
			for _, h := range rg.spawnLeafBulk(fns) {
				rg.join(h)
			}
		default:
			panic("omplwt: unknown schedule")
		}
	}
	acc := identity
	for _, p := range partials {
		acc = op(acc, p)
	}
	return acc
}
