package serve

import (
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/microbench"
	"repro/internal/queue"
)

// histBounds are the fixed exponential upper bounds of the latency
// histogram, chosen to straddle the paper's microsecond-scale work units
// and real I/O-bound request times. The histogram has one more bucket
// than bounds: the final, implicit bound is +Inf.
var histBounds = [...]time.Duration{
	50 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond,
	500 * time.Microsecond, time.Millisecond, 2500 * time.Microsecond,
	5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
	50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
	500 * time.Millisecond, time.Second, 2500 * time.Millisecond,
}

const numHistBuckets = len(histBounds) + 1

// HistBounds returns the latency histogram's bucket upper bounds. The
// returned slice has len(Metrics.Hist)-1 entries; the last histogram
// bucket is +Inf. Callers must not modify it.
func HistBounds() []time.Duration { return histBounds[:] }

// The latency counters refine histBounds' 1-2.5-5 ladder: it runs from
// 1µs to 10s, and each interval between neighbouring rungs is split into
// subBuckets equal-width counters. One counter below the ladder holds
// [0, 1µs] and one past it holds the rest.
const (
	subBuckets     = 8
	ladderDecades  = 7 // 1µs .. 10s
	numLatCounters = 1 + 3*ladderDecades*subBuckets + 1
)

// latEdges are the counters' inclusive upper edges, ascending; the
// overflow counter has none. Every histBounds entry is an edge, so the
// exported histogram is a sum over counters. A quantile read as the
// upper edge of its counter is off by at most one counter width: 1.5/8
// of the value at worst, at the bottom of a 1→2.5 interval.
var latEdges = func() (e [numLatCounters - 1]time.Duration) {
	e[0] = time.Microsecond
	for i := 1; i < len(e); i++ {
		// Ladder interval s starts at rung e[s*subBuckets] and spans
		// 1→2.5, 2.5→5 or 5→10 of its decade.
		s := (i - 1) / subBuckets
		lo, hi := e[s*subBuckets], 2*e[s*subBuckets]
		if s%3 == 0 {
			hi = lo * 5 / 2
		}
		e[i] = lo + time.Duration(i-s*subBuckets)*(hi-lo)/subBuckets
	}
	return e
}()

// metrics is one shard's internal counter state.
type metrics struct {
	submitted atomic.Uint64 // accepted into the queue
	completed atomic.Uint64 // request bodies finished (incl. failed/panicked)
	saturated atomic.Uint64 // fast-rejected with ErrSaturated
	canceled  atomic.Uint64 // cancelled/expired while blocked submitting (never accepted)
	expired   atomic.Uint64 // shed before launch: deadline passed or ctx cancelled while queued
	rejected  atomic.Uint64 // failed with ErrClosed at shutdown
	failed    atomic.Uint64 // bodies that returned an error
	panicked  atomic.Uint64 // bodies that panicked
	steals    atomic.Uint64 // unkeyed requests this shard stole from another shard's queue

	// lat counts completed requests per latency counter (latEdges) —
	// the only record of request latency. latSum accumulates every
	// observed latency for the _sum series and the mean.
	lat    [numLatCounters]atomic.Uint64
	latSum atomic.Int64
}

// observe records one completed request's latency.
func (m *metrics) observe(lat time.Duration) {
	m.completed.Add(1)
	k, _ := slices.BinarySearch(latEdges[:], lat)
	m.lat[k].Add(1)
	m.latSum.Add(int64(lat))
}

// latCounts is one read of a set of latency counters.
type latCounts struct {
	n   [numLatCounters]uint64
	sum time.Duration
}

// load reads the latency counters once.
func (m *metrics) load() (c latCounts) {
	for i := range m.lat {
		c.n[i] = m.lat[i].Load()
	}
	c.sum = time.Duration(m.latSum.Load())
	return c
}

// histSnapshot reads the counters once and returns the cumulative
// (Prometheus "le"-style) histogram: entry i counts requests with
// latency <= histBounds[i], the final entry counts everything observed.
func (m *metrics) histSnapshot() []uint64 {
	c := m.load()
	return c.hist()
}

// hist is histSnapshot over counters already read.
func (c *latCounts) hist() []uint64 {
	out := make([]uint64, numHistBuckets)
	var run uint64
	b := 0
	for k, v := range c.n[:len(latEdges)] {
		run += v
		if b < len(histBounds) && latEdges[k] == histBounds[b] {
			out[b] = run
			b++
		}
	}
	run += c.n[len(latEdges)]
	out[b] = run
	return out
}

// add sums another shard's counters into c.
func (c *latCounts) add(o *latCounts) {
	for i, v := range o.n {
		c.n[i] += v
	}
	c.sum += o.sum
}

// since returns the completions counted in c but not yet in prev, an
// earlier read of the same counters.
func (c *latCounts) since(prev *latCounts) latCounts {
	d := latCounts{sum: c.sum - prev.sum}
	for i, v := range c.n {
		d.n[i] = v - prev.n[i]
	}
	return d
}

// stats summarizes the counted completions: Reps, Mean and the
// P50/P95/P99 percentiles, each the upper edge of the counter holding
// that nearest rank (the last edge for the overflow counter). Min, Max
// and RSD stay zero; the counters cannot give them.
func (c *latCounts) stats() microbench.Stats {
	var total uint64
	for _, v := range c.n {
		total += v
	}
	if total == 0 {
		return microbench.Stats{}
	}
	return microbench.Stats{
		Mean: c.sum / time.Duration(total),
		P50:  c.quantile(0.50, total),
		P95:  c.quantile(0.95, total),
		P99:  c.quantile(0.99, total),
		Reps: int(total),
	}
}

// quantile is the nearest-rank q-quantile (0 < q < 1) over total
// counted completions, ranked the way microbench.Summarize ranks.
func (c *latCounts) quantile(q float64, total uint64) time.Duration {
	rank := uint64(math.Ceil(q * float64(total)))
	var run uint64
	for k, v := range c.n[:len(latEdges)] {
		if run += v; run >= rank {
			return latEdges[k]
		}
	}
	return latEdges[len(latEdges)-1]
}

// Metrics is a point-in-time snapshot of serving counters and the
// latency distribution — the throughput/queue-depth/percentile view a
// serving deployment watches. Server.Metrics returns the aggregate
// across shards (Shard == -1); Server.ShardMetrics returns one entry
// per shard.
type Metrics struct {
	// Backend is the serving backend's registered name.
	Backend string
	// Shard is the shard index this snapshot covers, or -1 for the
	// whole-server aggregate.
	Shard int
	// Shards is the routing set's current size — base shards plus live
	// dynamic shards. With autoscaling armed it moves between
	// Options.Shards and AutoScale.MaxShards; the per-shard slice from
	// ShardMetrics may be longer (scaled-down shards keep reporting).
	Shards int
	// Router is the name of the router spreading unkeyed submissions.
	Router string
	// Submitted counts requests accepted into the queue.
	Submitted uint64
	// Completed counts finished request bodies, including those that
	// returned errors or panicked.
	Completed uint64
	// Saturated counts submissions fast-rejected with ErrSaturated.
	Saturated uint64
	// Canceled counts submissions that gave up while blocked on a full
	// queue — context cancelled or deadline passed before acceptance.
	// They were never accepted, so they sit outside the drain identity.
	Canceled uint64
	// Expired counts accepted requests shed from the queue before
	// launch: their deadline passed (ErrExpired) or their submission
	// context was cancelled while they waited. Together with Completed
	// and Rejected they account for every accepted request:
	// Submitted == Completed + Rejected + Expired after a drain.
	Expired uint64
	// Rejected counts queued requests failed with ErrClosed at shutdown.
	Rejected uint64
	// Failed counts bodies that returned a non-nil error.
	Failed uint64
	// Panicked counts bodies whose panic was captured into the Future.
	Panicked uint64
	// Steals counts unkeyed queued requests this shard took from
	// another shard's queue and ran itself (Options.Steal). Thief-side:
	// a stolen request stays Submitted on the shard that accepted it
	// and becomes Completed here, so per-shard Submitted and Completed
	// drift apart under stealing while the aggregate drain identity
	// holds exactly.
	Steals uint64
	// ScaleUps and ScaleDowns count autoscaler routing-set changes over
	// the server's lifetime (aggregate view only; zero per shard).
	ScaleUps   uint64
	ScaleDowns uint64
	// QueueDepth is the number of requests waiting in the submission
	// queue right now.
	QueueDepth int
	// InFlight is the number of launched-but-unfinished work units.
	InFlight int
	// IOParked is how many of InFlight are currently parked on the
	// async-I/O reactor: launched, unfinished, but holding no executor.
	// The admission gate discounts them, so InFlight may legitimately
	// exceed MaxInFlight by up to IOParked.
	IOParked int
	// Uptime is the time since the server started.
	Uptime time.Duration
	// Throughput is Completed divided by Uptime, in requests/second.
	Throughput float64
	// Latency summarizes every completion over the server's lifetime,
	// read off the same counters as Hist: Reps, Mean and the
	// P50/P95/P99 percentiles, each reported as the upper edge of the
	// fine latency counter holding it (at most 18.75% high; zero-valued
	// until a request completes). Min, Max and RSD are not filled. The
	// watchdog and the autoscaler see the same summary computed over
	// only the completions since their previous sample instead.
	// Latency is end-to-end — measured from the submission call, so for
	// blocking submits it includes time spent waiting out backpressure,
	// not just queued-to-completion service time.
	Latency microbench.Stats
	// Hist is the cumulative end-to-end latency histogram over the
	// server's whole lifetime, a coarser read of the counters behind
	// Latency: Hist[i] counts completed requests with latency
	// <= HistBounds()[i], and the final entry — the +Inf bucket — counts
	// every completion. Cumulative counts map directly onto Prometheus
	// histogram "le" series.
	Hist []uint64
	// LatencySum is the sum of every completed request's end-to-end
	// latency, the _sum companion to Hist.
	LatencySum time.Duration
	// Sched snapshots the shard runtime's scheduler pool counters —
	// pushes, pops, steals, contended operations, empty polls — summed
	// across the backend's executors (and across shards in the
	// aggregate view). Zero-valued on backends without instrumented
	// pools.
	Sched queue.Counts
}
