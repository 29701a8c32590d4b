package core

import (
	"strings"
	"sync/atomic"
	"testing"
)

// allBackends are the registered names; each conformance test runs on all
// of them, demonstrating the paper's claim that the reduced function set
// of Table II covers every backend.
func allBackends() []string { return Backends() }

func TestRegistryLists(t *testing.T) {
	names := Backends()
	want := []string{
		"argobots", "argobots-shared", "converse", "go",
		"massivethreads", "massivethreads-helpfirst",
		"qthreads", "qthreads-pernode",
	}
	if len(names) != len(want) {
		t.Fatalf("Backends() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Backends() = %v, want %v", names, want)
		}
	}
}

func TestUnknownBackend(t *testing.T) {
	_, err := Open(Config{Backend: "no-such-runtime", Executors: 2})
	if err == nil {
		t.Fatal("Open accepted an unknown backend")
	}
	if !strings.Contains(err.Error(), "no-such-runtime") {
		t.Fatalf("error %q does not name the backend", err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("argobots", func() Backend { return nil })
}

func TestMustNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustOpen did not panic")
		}
	}()
	MustOpen(Config{Backend: "bogus", Executors: 1})
}

// TestListing4Shape runs the exact program shape of Listing 4 on every
// backend: init, N ULT creations, a yield, N joins, finalize.
func TestListing4Shape(t *testing.T) {
	for _, name := range allBackends() {
		name := name
		t.Run(name, func(t *testing.T) {
			r := MustOpen(Config{Backend: name, Executors: 4})
			if r.Name() != name {
				t.Fatalf("Name = %q, want %q", r.Name(), name)
			}
			const n = 100
			var ran atomic.Int64
			hs := make([]Handle, n)
			for i := 0; i < n; i++ {
				hs[i] = r.ULTCreate(func(Ctx) { ran.Add(1) })
			}
			r.Yield()
			r.JoinAll(hs)
			r.Finalize()
			if got := ran.Load(); got != n {
				t.Fatalf("ran = %d, want %d", got, n)
			}
		})
	}
}

func TestTaskletCreateAllBackends(t *testing.T) {
	for _, name := range allBackends() {
		name := name
		t.Run(name, func(t *testing.T) {
			r := MustOpen(Config{Backend: name, Executors: 3})
			defer r.Finalize()
			const n = 60
			var ran atomic.Int64
			hs := make([]Handle, n)
			for i := 0; i < n; i++ {
				hs[i] = r.TaskletCreate(func() { ran.Add(1) })
			}
			r.JoinAll(hs)
			if got := ran.Load(); got != n {
				t.Fatalf("ran = %d, want %d", got, n)
			}
		})
	}
}

func TestNestedCreationAllBackends(t *testing.T) {
	for _, name := range allBackends() {
		name := name
		t.Run(name, func(t *testing.T) {
			r := MustOpen(Config{Backend: name, Executors: 4})
			defer r.Finalize()
			const parents, children = 8, 4
			var leaves atomic.Int64
			hs := make([]Handle, parents)
			for i := 0; i < parents; i++ {
				hs[i] = r.ULTCreate(func(c Ctx) {
					kids := make([]Handle, children)
					for j := range kids {
						kids[j] = c.ULTCreate(func(Ctx) { leaves.Add(1) })
					}
					for _, k := range kids {
						c.Join(k)
					}
				})
			}
			r.JoinAll(hs)
			if got := leaves.Load(); got != parents*children {
				t.Fatalf("leaves = %d, want %d", got, parents*children)
			}
		})
	}
}

func TestNestedTaskletsAllBackends(t *testing.T) {
	for _, name := range allBackends() {
		name := name
		t.Run(name, func(t *testing.T) {
			r := MustOpen(Config{Backend: name, Executors: 4})
			defer r.Finalize()
			const parents, children = 6, 5
			var leaves atomic.Int64
			hs := make([]Handle, parents)
			for i := 0; i < parents; i++ {
				hs[i] = r.ULTCreate(func(c Ctx) {
					kids := make([]Handle, children)
					for j := range kids {
						kids[j] = c.TaskletCreate(func() { leaves.Add(1) })
					}
					for _, k := range kids {
						c.Join(k)
					}
				})
			}
			r.JoinAll(hs)
			if got := leaves.Load(); got != parents*children {
				t.Fatalf("leaves = %d, want %d", got, parents*children)
			}
		})
	}
}

func TestYieldInsideULTAllBackends(t *testing.T) {
	for _, name := range allBackends() {
		name := name
		t.Run(name, func(t *testing.T) {
			r := MustOpen(Config{Backend: name, Executors: 2})
			defer r.Finalize()
			var steps atomic.Int64
			h := r.ULTCreate(func(c Ctx) {
				steps.Add(1)
				c.Yield()
				steps.Add(1)
			})
			r.Join(h)
			if steps.Load() != 2 {
				t.Fatalf("steps = %d, want 2", steps.Load())
			}
		})
	}
}

func TestCapabilitiesMatchTableI(t *testing.T) {
	// Spot-check the rows of Table I through the unified API.
	cases := map[string]func(Capabilities) bool{
		"argobots": func(c Capabilities) bool {
			return c.HierarchyLevels == 2 && c.WorkUnitTypes == 2 &&
				c.Tasklets && c.YieldTo && c.StackableScheduler && c.PrivateQueues
		},
		"qthreads": func(c Capabilities) bool {
			return c.HierarchyLevels == 3 && c.WorkUnitTypes == 1 &&
				!c.Tasklets && !c.YieldTo && c.PrivateQueues
		},
		"massivethreads": func(c Capabilities) bool {
			return c.HierarchyLevels == 2 && !c.Tasklets && c.PrivateQueues
		},
		"converse": func(c Capabilities) bool {
			return c.WorkUnitTypes == 2 && c.Tasklets && c.PrivateQueues
		},
		"go": func(c Capabilities) bool {
			return c.GlobalQueue && !c.PrivateQueues && !c.Yieldable &&
				!c.PluginScheduler
		},
	}
	for name, check := range cases {
		r := MustOpen(Config{Backend: name, Executors: 2})
		caps := r.Caps()
		r.Finalize()
		if !check(caps) {
			t.Fatalf("%s capabilities do not match Table I: %+v", name, caps)
		}
	}
}

func TestJoinOnCompletedHandle(t *testing.T) {
	for _, name := range allBackends() {
		r := MustOpen(Config{Backend: name, Executors: 2})
		h := r.ULTCreate(func(Ctx) {})
		r.Join(h)
		if !h.Done() {
			t.Fatalf("%s: handle not done after join", name)
		}
		r.Finalize()
	}
}
