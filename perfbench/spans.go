package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it called. Times are offsets from the run's epoch.
type span struct {
	name       string
	parent     int // index of the enclosing span, -1 for a root
	req        int // request (or job) the span belongs to
	start, end time.Duration
}

// spanLog keeps spans in memory until the run ends. Slots are claimed
// with one atomic add, so work units on several executors can record
// at once; spans past the capacity are counted and dropped.
type spanLog struct {
	n     atomic.Int64
	spans []span
}

func newSpanLog(n int) *spanLog { return &spanLog{spans: make([]span, n)} }

// add records s and returns its index, or -1 when the log is full.
func (l *spanLog) add(s span) int {
	i := l.n.Add(1) - 1
	if i >= int64(len(l.spans)) {
		return -1
	}
	l.spans[i] = s
	return int(i)
}

func (l *spanLog) all() []span {
	n := l.n.Load()
	if n > int64(len(l.spans)) {
		n = int64(len(l.spans))
	}
	return l.spans[:n]
}

func (l *spanLog) dropped() int64 {
	if d := l.n.Load() - int64(len(l.spans)); d > 0 {
		return d
	}
	return 0
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) []time.Duration {
	kids := map[int][]int{}
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].start < spans[cs[b]].start })
		cur := s.start // covered up to here
		for _, c := range cs {
			lo, hi := max(spans[c].start, cur), min(spans[c].end, s.end)
			if hi > lo {
				self[i] -= hi - lo
				cur = hi
			}
		}
	}
	return self
}

// spanStats collects one span name's durations and self times, in
// microseconds.
type spanStats struct{ dur, self dist }

func summarize(spans []span, self []time.Duration) map[string]*spanStats {
	out := map[string]*spanStats{}
	for i, s := range spans {
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		st.dur.add(us(s.end - s.start))
		st.self.add(us(self[i]))
	}
	return out
}

// spanReport is the per-name summary printed with a traced run.
func spanReport(stats map[string]*spanStats) map[string]any {
	r := map[string]any{}
	for name, st := range stats {
		r[name] = map[string]any{
			"count":       len(st.dur.xs),
			"p50_us":      st.dur.q(50),
			"p99_us":      st.dur.q(99),
			"self_p50_us": st.self.q(50),
		}
	}
	return r
}

// writeSpans dumps the spans as CSV, one per line.
func writeSpans(path string, spans []span, self []time.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,req,name,start_ns,end_ns,self_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", i, s.parent, s.req, s.name, s.start, s.end, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
