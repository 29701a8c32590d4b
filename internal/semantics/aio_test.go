package semantics

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSleepPreservesPlacement is the async-I/O placement contract: on
// backends whose capabilities grant pinning, a ULT created with
// ULTCreateTo(i) that parks on the reactor mid-body must resume on
// executor i — the unpark half of the park pair pushes the unit back to
// the pool it was issued from, not to whichever executor the reactor
// happened to run near. Backends without the Placement promise only
// guarantee an in-range executor after the wait (MassiveThreads
// documents that a resumed unit may migrate, exactly as a steal would
// move it).
func TestSleepPreservesPlacement(t *testing.T) {
	for _, name := range core.Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			const executors = 3
			r := core.MustOpen(core.Config{Backend: name, Executors: executors})
			defer r.Finalize()
			caps := r.Caps()
			n := r.NumExecutors()
			before := make([]atomic.Int64, n)
			after := make([]atomic.Int64, n)
			hs := make([]core.Handle, 0, n)
			for i := 0; i < n; i++ {
				i := i
				hs = append(hs, r.ULTCreateTo(i, func(c core.Ctx) {
					before[i].Store(int64(c.ExecutorID()) + 1)
					core.Sleep(c, 5*time.Millisecond)
					after[i].Store(int64(c.ExecutorID()) + 1)
				}))
			}
			r.JoinAll(hs)
			for i := 0; i < n; i++ {
				b, a := before[i].Load()-1, after[i].Load()-1
				if b < 0 || b >= int64(n) || a < 0 || a >= int64(n) {
					t.Fatalf("create-to(%d): executors %d -> %d out of range [0,%d)", i, b, a, n)
				}
				if caps.Placement && (b != int64(i) || a != int64(i)) {
					t.Fatalf("create-to(%d): executors %d -> %d across Sleep; caps promise pinning", i, b, a)
				}
			}
		})
	}
}
