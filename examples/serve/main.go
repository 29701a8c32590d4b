// Serve: the task-submission subsystem from plain goroutines — the
// pattern the Table II API cannot express (work created outside the
// backend's main thread, results returned, overload rejected). A pool
// of producer goroutines submits BLAS work and fib ULT trees to every
// backend in turn — spread across a pool of runtime shards by
// power-of-two-choices, with a slice of keyed traffic pinned to shards
// by session — deliberately overruns the queues to show ErrSaturated,
// and prints the serving metrics each backend accumulated, with the
// per-shard traffic split.
//
//	go run ./examples/serve -threads 2 -shards 2 -requests 200
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	lwt "repro"
	"repro/internal/blas"
)

func main() {
	threads := flag.Int("threads", 2, "executors per shard")
	shards := flag.Int("shards", 2, "runtime shards per backend")
	requests := flag.Int("requests", 200, "requests per backend")
	producers := flag.Int("producers", 4, "producer goroutines")
	flag.Parse()

	for _, backend := range lwt.Backends() {
		srv, err := lwt.NewServer(lwt.ServeOptions{
			Backend: backend, Threads: *threads, Shards: *shards, QueueDepth: 64,
		})
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		sub := srv.Submitter()

		var wg sync.WaitGroup
		var wrong atomic.Int64
		for p := 0; p < *producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < *requests / *producers; i++ {
					if i%10 == 0 {
						// A ULT-shaped request: fib(16) as a spawn/join
						// tree on the serving runtime.
						f, err := lwt.DoULT(sub, context.Background(), func(c lwt.Ctx) (uint64, error) {
							return fibULT(c, 16), nil
						}, lwt.Req{})
						if err != nil {
							log.Fatalf("%s: DoULT: %v", backend, err)
						}
						if v := f.MustWait(); v != 987 {
							wrong.Add(1)
						}
						continue
					}
					if i%10 == 5 {
						// A keyed request: producer p's "session" always
						// lands on the same shard, keeping that runtime's
						// local state warm.
						f, err := lwt.Do(sub, context.Background(), func() (float32, error) {
							v := make([]float32, 256)
							blas.Fill(v, 4)
							blas.Sscal(v, 0.25)
							return blas.Sasum(v), nil
						}, lwt.Req{Key: fmt.Sprintf("session-%d", p)})
						if err != nil {
							log.Fatalf("%s: Do (keyed): %v", backend, err)
						}
						if v := f.MustWait(); v != 256 {
							wrong.Add(1)
						}
						continue
					}
					// A tasklet-shaped request: scale a vector, return
					// its checksum.
					f, err := lwt.Do(sub, context.Background(), func() (float32, error) {
						v := make([]float32, 512)
						blas.Fill(v, 2)
						blas.Sscal(v, 0.5)
						return blas.Sasum(v), nil
					}, lwt.Req{})
					if err != nil {
						log.Fatalf("%s: Do: %v", backend, err)
					}
					if v := f.MustWait(); v != 512 {
						wrong.Add(1)
					}
				}
			}(p)
		}
		wg.Wait()

		// Overrun the queue on purpose: fire non-blocking submissions
		// against a gated server until admission control pushes back.
		gate := make(chan struct{})
		blocked, _ := lwt.Do(sub, context.Background(), func() (int, error) {
			<-gate
			return 0, nil
		}, lwt.Req{})
		saturated := 0
		for i := 0; i < 10_000; i++ {
			if _, err := lwt.Do(sub, nil, func() (int, error) { return i, nil }, lwt.Req{NonBlocking: true}); errors.Is(err, lwt.ErrSaturated) {
				saturated++
				break
			}
		}
		close(gate)
		if blocked != nil {
			blocked.MustWait()
		}

		m := srv.Metrics()
		sm := srv.ShardMetrics()
		srv.Close()
		split := ""
		for i, s := range sm {
			if i > 0 {
				split += "/"
			}
			split += fmt.Sprint(s.Completed)
		}
		fmt.Printf("%-26s completed=%-5d per-shard=%-12s p50=%-10v p99=%-10v %8.0f req/s  saturated rejections seen: %d\n",
			backend, m.Completed, split, m.Latency.P50, m.Latency.P99, m.Throughput, saturated)
		if wrong.Load() != 0 {
			log.Fatalf("%s: %d wrong results", backend, wrong.Load())
		}
	}
}

// fibULT is the recursive spawn/join decomposition on the serving
// runtime's cooperative context.
func fibULT(c lwt.Ctx, n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	if n < 10 {
		return fibULT(c, n-1) + fibULT(c, n-2)
	}
	var left uint64
	h := c.ULTCreate(func(cc lwt.Ctx) { left = fibULT(cc, n-1) })
	right := fibULT(c, n-2)
	c.Join(h)
	return left + right
}
