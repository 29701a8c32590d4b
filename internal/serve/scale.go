package serve

import (
	"time"

	"repro/internal/trace"
)

// DefaultScaleInterval is the autoscaler's sample period when
// AutoScale.Interval is unset.
const DefaultScaleInterval = 500 * time.Millisecond

// scaleLaneExec is the flight-recorder lane id of the autoscaler's
// trace ring — far below the per-shard lanes at -(shard+1), so dumps
// never confuse the two.
const scaleLaneExec = -4096

// Autoscaler tuning. Like the anomaly detector's, the constants are
// deliberately deterministic — fixed run lengths, no randomness — so a
// given metrics sequence always scales the same way and the unit tests
// can drive the detector sample by sample.
const (
	// growRunLength: consecutive hot samples before the pool grows by
	// one shard. One full queue is backpressure working; several sample
	// periods of it is sustained saturation.
	growRunLength = 3
	// shrinkRunLength: consecutive cold samples before the pool sheds
	// one dynamic shard — longer than growRunLength so the pool grows
	// eagerly under pressure and shrinks reluctantly (scale-down
	// hysteresis).
	shrinkRunLength = 8
	// scaleCooldown: samples to hold after a scale event, letting the
	// depth and P99 signals absorb the new shard count before the next
	// decision.
	scaleCooldown = 4
	// scaleSpikeFactor: P99 above this multiple of its own EWMA
	// baseline marks a sample hot even before the queues back up —
	// gentler than the anomaly watchdog's spikeFactor because scaling
	// should engage before the incident, not report it.
	scaleSpikeFactor = 2
)

// AutoScale configures the shard autoscaler. The zero value leaves it
// off: the autoscaler arms only when MaxShards exceeds Options.Shards.
//
// The controller samples the aggregate Metrics every Interval, with
// Latency covering only that interval's completions, and feeds a
// deterministic detector: sustained saturation — the queues' depth
// signal backing up past the per-shard in-flight cap, ErrSaturated
// rejections growing, or P99 spiking over its p99Baseline — for
// growRunLength consecutive samples grows the routing set by one shard;
// a pool that stays cold for shrinkRunLength samples shrinks by one.
//
// Growth never remaps keys: keyed submissions hash over the base
// Options.Shards only, so dynamic shards carry unkeyed traffic. Shrink
// is a graceful routing-level drain — the shard leaves the routing set
// first, then its pump runs down whatever it had accepted; because the
// pump keeps owning its queues afterwards (parked warm, zero CPU), a
// submission that raced the scale-down is served, not stranded, and a
// later grow revives the shard instead of paying another backend
// initialization. Every shard, in the set or out, is finalized at
// Close.
type AutoScale struct {
	// MaxShards is the routing set's ceiling. <= Options.Shards means
	// autoscaling off.
	MaxShards int
	// Interval is the controller's sample period; <= 0 means
	// DefaultScaleInterval.
	Interval time.Duration
}

// scaleDetector classifies a stream of aggregate Metrics samples into
// grow/shrink decisions. Not safe for concurrent use; the controller
// goroutine owns it.
type scaleDetector struct {
	p99           p99Baseline
	lastSaturated uint64
	hotRun        int
	coldRun       int
	cooldown      int
}

// observe feeds one aggregate sample and returns +1 (grow), -1
// (shrink) or 0 (hold). maxInFlight is the per-shard Options value the
// depth signal is measured against.
func (d *scaleDetector) observe(m Metrics, maxInFlight int) int {
	shards := m.Shards
	if shards < 1 {
		shards = 1
	}
	// The p2c routers balance on queued+inflight depth; the controller
	// reads the same signal per shard. Queued work at or past the
	// in-flight cap means the executors cannot absorb arrivals.
	depth := float64(m.QueueDepth) / float64(shards)
	satGrew := m.Saturated > d.lastSaturated
	d.lastSaturated = m.Saturated

	p99 := m.Latency.P99
	// An idle pool (nothing queued or in flight) carries no capacity
	// signal, whatever P99 its last completions left behind: reading it
	// as a spike would hold off the cold run that shrinks the pool.
	if m.QueueDepth == 0 && m.InFlight == 0 {
		p99 = 0
	}
	spiking := d.p99.spikes(p99, scaleSpikeFactor, 0)

	hot := satGrew || depth >= float64(maxInFlight) || (spiking && m.QueueDepth > 0)
	cold := m.QueueDepth == 0 && !satGrew && !spiking &&
		float64(m.InFlight)/float64(shards) < float64(maxInFlight)/2
	switch {
	case hot:
		d.hotRun++
		d.coldRun = 0
	case cold:
		d.coldRun++
		d.hotRun = 0
	default:
		d.hotRun, d.coldRun = 0, 0
	}

	if d.cooldown > 0 {
		d.cooldown--
		return 0
	}
	switch {
	case d.hotRun >= growRunLength:
		d.hotRun = 0
		d.cooldown = scaleCooldown
		return 1
	case d.coldRun >= shrinkRunLength:
		d.coldRun = 0
		d.cooldown = scaleCooldown
		return -1
	}
	return 0
}

// watchScale is the autoscaler's controller goroutine: it feeds every
// Scale.Interval sample to the detector and applies its verdicts.
// Started by New only when Scale.MaxShards > Shards; exits when the
// server shuts down.
func (s *Server) watchScale() {
	var det scaleDetector
	s.watch(s.opts.Scale.Interval, func(m Metrics) {
		switch det.observe(m, s.opts.MaxInFlight) {
		case 1:
			s.grow()
		case -1:
			s.shrink()
		}
	})
}

// grow adds one shard to the routing set: a previously scaled-down
// shard is revived in place (its runtime stayed warm), otherwise a new
// shard and backend runtime are started. Reports whether the set grew.
func (s *Server) grow() bool {
	s.scaleMu.Lock()
	defer s.scaleMu.Unlock()
	if s.closed.Load() {
		return false
	}
	cur := *s.set.Load()
	if len(cur) >= s.opts.Scale.MaxShards {
		return false
	}
	var sh *shard
	for _, c := range s.all {
		if !inSet(cur, c) {
			sh = c // revive: drained earlier, runtime still live
			break
		}
	}
	if sh == nil {
		sh = s.newShard(len(s.all))
		ready := make(chan error, 1)
		go sh.pump(ready)
		if err := <-ready; err != nil {
			// The pump closed sh.done and the ring on its error path;
			// the shard was never published anywhere.
			return false
		}
		s.all = append(s.all, sh)
	}
	next := append(append(make([]*shard, 0, len(cur)+1), cur...), sh)
	s.set.Store(&next)
	s.scaleUps.Add(1)
	s.scaleRing.Instant(trace.KindUser, uint64(len(next)))
	return true
}

// shrink removes the newest dynamic shard from the routing set. Base
// shards never leave — they are the keyed-affinity domain. The removed
// shard's pump is not told anything: with no new traffic routed to it,
// it runs down its queues and parks; see AutoScale for why it stays
// warm. Reports whether the set shrank.
func (s *Server) shrink() bool {
	s.scaleMu.Lock()
	defer s.scaleMu.Unlock()
	if s.closed.Load() {
		return false
	}
	cur := *s.set.Load()
	if len(cur) <= s.base {
		return false
	}
	i := len(cur) - 1
	if cur[i].id < s.base {
		return false // base shard at the tail; routing set never reorders, so this cannot happen
	}
	next := append(make([]*shard, 0, i), cur[:i]...)
	s.set.Store(&next)
	s.scaleDowns.Add(1)
	s.scaleRing.Instant(trace.KindUser, uint64(len(next)))
	return true
}

func inSet(set []*shard, sh *shard) bool {
	for _, v := range set {
		if v == sh {
			return true
		}
	}
	return false
}
