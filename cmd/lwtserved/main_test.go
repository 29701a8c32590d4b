package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	lwt "repro"
)

// TestHandleDeadlineBoundsWait pins the 504 contract the chaos drill
// leans on: a body that never observes the cooperative cancel signal
// must not hold the HTTP reply past the budget — the Wait is cut at
// the deadline and the caller gets 504 while the work unit finishes in
// the background. Without a budget the same body answers 200.
func TestHandleDeadlineBoundsWait(t *testing.T) {
	g := &registry{servers: map[string]*lwt.Server{}, omps: map[string]*ompWorker{}}
	defer g.closeAll()
	// A cooperative but cancellation-blind body: yields so the shard's
	// executor is shared, never checks the cancel channel, runs ~300ms.
	h := handle(g, func(r *http.Request, sub *lwt.Submitter, n int) (*lwt.Future[float64], error) {
		return submitULT(r, sub, func(c lwt.Ctx) (float64, error) {
			end := time.Now().Add(300 * time.Millisecond)
			for time.Now().Before(end) {
				c.Yield()
			}
			return 1, nil
		})
	}, 1, 10)

	rec := httptest.NewRecorder()
	t0 := time.Now()
	h(rec, httptest.NewRequest(http.MethodGet, "/slow?backend=go&deadline_ms=50", nil))
	elapsed := time.Since(t0)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status past a 50ms budget = %d, want 504", rec.Code)
	}
	if elapsed >= 300*time.Millisecond {
		t.Fatalf("reply held %v — the Wait was not cut at the deadline", elapsed)
	}

	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/slow?backend=go", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("unbudgeted status = %d, want 200", rec.Code)
	}
}

// FuzzResolveTopo: an SxCxP spec is accepted exactly when it is
// canonical — three positive decimal ints with no sign, leading zero or
// leftover input — and an accepted spec renders back to the input. It
// only parses; no server is started.
func FuzzResolveTopo(f *testing.F) {
	for _, seed := range []string{"2x18x2", "1x1x1", "2x18x2junk", "2x18x2x9", "+2x18x2", "02x18x2",
		"2x18", "0x18x2", "2x-1x2", " 2x18x2", "1x1x9223372036854775807", "1x1x9223372036854775808"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if spec == "" || spec == "off" || spec == "detect" || spec == "paper" {
			return
		}
		canonical := true
		parts := strings.Split(spec, "x")
		for _, part := range parts {
			n, err := strconv.Atoi(part)
			canonical = canonical && err == nil && n >= 1 && strconv.Itoa(n) == part
		}
		canonical = canonical && len(parts) == 3
		tp, err := resolveTopo(spec)
		if canonical != (err == nil) {
			t.Fatalf("resolveTopo(%q) err = %v, canonical = %v", spec, err, canonical)
		}
		if err == nil {
			if got := fmt.Sprintf("%dx%dx%d", tp.Sockets, tp.CoresPerSocket, tp.PUsPerCore); got != spec {
				t.Fatalf("spec %q accepted as %s", spec, got)
			}
		}
	})
}
