// Quickstart: the paper's Listing 4 ("pseudo-code using abstracted LWT
// functions") as a running program on the unified API, at its v2
// (GLT-shaped) surface. Pick any backend with -backend; the same reduced
// function set — open, create, yield, join, finalize — works on all of
// them, which is exactly the paper's §VIII-C observation.
//
// Beyond Listing 4, v2 adds Config.Scheduler, r.ULTCreateTo,
// c.ExecutorID, r.NewMutex/NewBarrier/NewCond and c.YieldTo.
//
//	go run ./examples/quickstart -backend argobots -n 100 -threads 4 -scheduler lifo
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"sync/atomic"

	lwt "repro"
)

func main() {
	backend := flag.String("backend", "argobots", "unified-API backend to run on")
	n := flag.Int("n", 100, "number of work units (Listing 4's N)")
	threads := flag.Int("threads", 4, "number of executors")
	scheduler := flag.String("scheduler", "", "ready-pool policy (fifo|lifo|priority|random)")
	flag.Parse()

	// initialization_function() — v2: one Config, negotiated against the
	// backend's capabilities.
	r, err := lwt.Open(lwt.Config{Backend: *backend, Executors: *threads, Scheduler: *scheduler})
	if err != nil {
		log.Fatalf("quickstart: %v (backends: %v)", err, lwt.Backends())
	}
	for _, d := range r.Degradations() {
		fmt.Printf("degraded: %s\n", d)
	}

	// for i in 0..N: ULT_creation_function(example) — dealt across the
	// executor group; backends with placement pin each unit.
	var greeted atomic.Int64
	perExec := make([]atomic.Int64, r.NumExecutors())
	handles := make([]lwt.Handle, *n)
	for i := range handles {
		i := i
		handles[i] = r.ULTCreateTo(i, func(c lwt.Ctx) {
			greeted.Add(1) // the "Hello world" body of Listing 4
			perExec[c.ExecutorID()].Add(1)
		})
	}

	// yield_function()
	r.Yield()

	// for i in 0..N: join_function()
	r.JoinAll(handles)

	caps := r.Caps()
	execs := r.NumExecutors()
	granted := r.Config().Scheduler

	// finalize_function()
	r.Finalize()

	fmt.Printf("backend %-16s: %d of %d ULTs said hello on %d executors\n",
		*backend, greeted.Load(), *n, execs)
	counts := make([]string, execs)
	for i := range counts {
		counts[i] = fmt.Sprint(perExec[i].Load())
	}
	fmt.Printf("per-executor spread  : [%s] (placement=%v)\n", strings.Join(counts, " "), caps.Placement)
	if granted == "" {
		granted = "fifo (default)"
	}
	fmt.Printf("scheduler            : %s (supported: %s)\n", granted, strings.Join(caps.Schedulers, ","))
	fmt.Printf("Table I profile      : %d hierarchy levels, %d work-unit type(s), tasklets=%v, yield_to=%v, sync=%s\n",
		caps.HierarchyLevels, caps.WorkUnitTypes, caps.Tasklets, caps.YieldTo, caps.SyncMechanism)
}
