package semantics

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestLibrariesOrderedAsTableI(t *testing.T) {
	libs := Libraries()
	want := []string{"Pthreads", "Argobots", "Qthreads", "MassiveThreads", "Converse Threads", "Go"}
	if len(libs) != len(want) {
		t.Fatalf("libraries = %v", libs)
	}
	for i, l := range libs {
		if l.String() != want[i] {
			t.Fatalf("library %d = %q, want %q", i, l, want[i])
		}
	}
}

func TestExecutorNames(t *testing.T) {
	want := map[Library]string{
		Pthreads:        "Pthread",
		Argobots:        "Execution Stream",
		Qthreads:        "Shepherd",
		MassiveThreads:  "Worker",
		ConverseThreads: "Processor",
		Go:              "Thread",
	}
	for l, w := range want {
		if got := l.ExecutorName(); got != w {
			t.Fatalf("%v executor = %q, want %q", l, got, w)
		}
	}
}

// TestTableIMatchesImplementations cross-checks the documented Table I
// against the live capabilities of the unified-API backends: the paper's
// semantic analysis must describe what this repository actually built.
func TestTableIMatchesImplementations(t *testing.T) {
	tab := TableI()
	for _, lib := range Libraries() {
		name := lib.BackendName()
		if name == "" {
			continue // Pthreads: reference only
		}
		r := core.MustOpen(core.Config{Backend: name, Executors: 2})
		caps := r.Caps()
		r.Finalize()
		f := tab[lib]
		if caps.HierarchyLevels != f.HierarchyLevels {
			t.Errorf("%v: hierarchy levels impl=%d table=%d", lib, caps.HierarchyLevels, f.HierarchyLevels)
		}
		if caps.WorkUnitTypes != f.WorkUnitTypes {
			t.Errorf("%v: work unit types impl=%d table=%d", lib, caps.WorkUnitTypes, f.WorkUnitTypes)
		}
		if caps.Tasklets != f.TaskletSupport {
			t.Errorf("%v: tasklet support impl=%v table=%v", lib, caps.Tasklets, f.TaskletSupport)
		}
		if caps.YieldTo != f.YieldTo {
			t.Errorf("%v: yield-to impl=%v table=%v", lib, caps.YieldTo, f.YieldTo)
		}
		if caps.StackableScheduler != f.StackableScheduler {
			t.Errorf("%v: stackable sched impl=%v table=%v", lib, caps.StackableScheduler, f.StackableScheduler)
		}
		// Queue shape: the default backend configuration must agree
		// with the table's private-queue column for the LWT libraries
		// that have one, and Go's global queue.
		if lib == Go && !caps.GlobalQueue {
			t.Errorf("Go backend lost its global queue")
		}
		if lib != Go && lib != Pthreads && !caps.PrivateQueues {
			t.Errorf("%v backend lost its private queues", lib)
		}
	}
}

func TestTableIIRowsComplete(t *testing.T) {
	tab := TableII()
	if len(tab) != len(Operations()) {
		t.Fatalf("Table II has %d rows, want %d", len(tab), len(Operations()))
	}
	// Spot-check the exact cells of the paper.
	checks := []struct {
		op   Operation
		lib  Library
		want string
	}{
		{OpInit, Argobots, "ABT_init"},
		{OpULTCreate, Qthreads, "qthread_fork"},
		{OpULTCreate, Go, "go function"},
		{OpTaskletCreate, ConverseThreads, "CmiSyncSend"},
		{OpTaskletCreate, Qthreads, ""},
		{OpYield, MassiveThreads, "myth_yield"},
		{OpYield, Go, ""},
		{OpJoin, Argobots, "ABT_thread_free"},
		{OpJoin, Qthreads, "qthread_readFF"},
		{OpJoin, Go, "channel"},
		{OpFinalize, ConverseThreads, "ConverseExit"},
	}
	for _, c := range checks {
		if got := tab[c.op][c.lib]; got != c.want {
			t.Errorf("TableII[%v][%v] = %q, want %q", c.op, c.lib, got, c.want)
		}
	}
}

func TestTaskletRowsConsistent(t *testing.T) {
	// A library has a Tasklet-creation function iff Table I grants it
	// tasklet support.
	tabI, tabII := TableI(), TableII()
	for _, lib := range Libraries() {
		if lib == Pthreads {
			continue
		}
		hasFn := tabII[OpTaskletCreate][lib] != ""
		if hasFn != tabI[lib].TaskletSupport {
			t.Errorf("%v: tasklet function %v but support %v", lib, hasFn, tabI[lib].TaskletSupport)
		}
	}
}

func TestRenderTableI(t *testing.T) {
	out := RenderTableI()
	for _, want := range []string{
		"Levels of Hierarchy", "Stackable Scheduler", "Argobots",
		"Converse Threads", "X(configure)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I rendering missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 12 {
		t.Fatalf("Table I has %d lines, want 12 (header + 11 rows)", lines)
	}
}

func TestRenderTableII(t *testing.T) {
	out := RenderTableII()
	for _, want := range []string{
		"Initialization", "qthread_readFF", "CmiSyncSend", "go function", "myth_fini",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table II rendering missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 7 {
		t.Fatalf("Table II has %d lines, want 7 (header + 6 rows)", lines)
	}
}

func TestBackendNameRoundTrip(t *testing.T) {
	for _, lib := range Libraries() {
		name := lib.BackendName()
		if lib == Pthreads {
			if name != "" {
				t.Fatal("Pthreads must have no backend")
			}
			continue
		}
		found := false
		for _, b := range core.Backends() {
			if b == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("%v backend %q not registered", lib, name)
		}
	}
}
