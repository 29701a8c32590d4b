package queue

import (
	"sync"
	"testing"

	"repro/internal/ult"
)

// BenchmarkQueueOps is the micro-series behind the lock-free hot-path
// work: the deque sub-benchmarks run the same operation mix on the
// lock-free deque and on its mutex baseline.
//
//   - deque-owner: the owner-path push+pop pair with no thieves — the
//     create/dispatch fast path. The lock-free case must report
//     0 allocs/op (recycled boxes) and lower ns/op than the mutex.
//   - deque-stolen: the same owner loop with three concurrent stealers —
//     the regime the paper's Figures 2–3 sweep into as executors grow.
//   - fifo-mpmc: concurrent producers and consumers on the shared queue
//     (the global-queue model's hot path).
func BenchmarkQueueOps(b *testing.B) {
	type dq interface {
		PushBottom(ult.Unit)
		PopBottom() ult.Unit
		StealTop() ult.Unit
	}
	unit := ult.NewTasklet(func() {})

	ownerLoop := func(b *testing.B, d dq) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.PushBottom(unit)
			if d.PopBottom() == nil {
				b.Fatal("owner pop lost the unit")
			}
		}
	}
	b.Run("deque-owner/lock-free", func(b *testing.B) { ownerLoop(b, NewDeque(256)) })
	b.Run("deque-owner/mutex", func(b *testing.B) { ownerLoop(b, NewMutexDeque(256)) })

	stolenLoop := func(b *testing.B, d dq) {
		const batch = 64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						d.StealTop()
					}
				}
			}()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				d.PushBottom(unit)
			}
			for j := 0; j < batch; j++ {
				if d.PopBottom() == nil {
					break // thieves got there first
				}
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	}
	b.Run("deque-stolen/lock-free", func(b *testing.B) { stolenLoop(b, NewDeque(256)) })
	b.Run("deque-stolen/mutex", func(b *testing.B) { stolenLoop(b, NewMutexDeque(256)) })

	type fifo interface {
		Push(ult.Unit)
		Pop() ult.Unit
	}
	mpmcLoop := func(b *testing.B, q fifo) {
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				q.Push(unit)
				q.Pop()
			}
		})
	}
	b.Run("fifo-mpmc/lock-free", func(b *testing.B) { mpmcLoop(b, NewFIFO(256)) })
}
