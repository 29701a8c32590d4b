package queue

import (
	"sync"
	"testing"

	"repro/internal/ult"
)

// The mutex deque is no longer on any hot path, but it remains the
// benchmark baseline and backs the LIFO policy's MPMC + PushTop shape, so
// it keeps its own coverage.

func TestMutexDequeEnds(t *testing.T) {
	d := NewMutexDeque(4)
	us := mkUnits(5)
	for _, u := range us {
		d.PushBottom(u)
	}
	if got := d.StealTop(); got != us[0] {
		t.Fatalf("StealTop = %d, want %d", got.ID(), us[0].ID())
	}
	if got := d.PopBottom(); got != us[4] {
		t.Fatalf("PopBottom = %d, want %d", got.ID(), us[4].ID())
	}
	if got := d.PopFront(); got != us[1] {
		t.Fatalf("PopFront = %d, want %d", got.ID(), us[1].ID())
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
}

func TestMutexDequePushTopIsOldest(t *testing.T) {
	var d MutexDeque
	us := mkUnits(3)
	d.PushBottom(us[0])
	d.PushBottom(us[1])
	d.PushTop(us[2]) // yield-reinsertion: oldest position
	if got := d.StealTop(); got != us[2] {
		t.Fatalf("StealTop after PushTop = %d, want %d", got.ID(), us[2].ID())
	}
	if got := d.PopBottom(); got != us[1] {
		t.Fatal("PushTop disturbed the owner end")
	}
}

func TestMutexDequeConcurrentMixedProducers(t *testing.T) {
	// The shape the lock-free deque cannot serve: many goroutines pushing
	// the bottom end concurrently (shared LIFO pools).
	var d MutexDeque
	const producers, per = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				d.PushBottom(ult.NewTasklet(func() {}))
			}
		}()
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for {
		u := d.PopBottom()
		if u == nil {
			break
		}
		if seen[u.ID()] {
			t.Fatalf("unit %d popped twice", u.ID())
		}
		seen[u.ID()] = true
	}
	if len(seen) != producers*per {
		t.Fatalf("popped %d units, want %d", len(seen), producers*per)
	}
}
