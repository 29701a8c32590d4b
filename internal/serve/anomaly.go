package serve

import (
	"fmt"
	"time"
)

// DefaultAnomalyInterval is the watchdog's sample period when
// Options.AnomalyInterval is unset.
const DefaultAnomalyInterval = time.Second

// Anomaly detector tuning. The detector is deliberately deterministic —
// fixed factors and run lengths, no randomness — so that a given metrics
// sequence always classifies the same way and the unit tests can drive
// it sample by sample.
const (
	// spikeFactor: P99 must exceed the EWMA baseline by this multiple.
	spikeFactor = 4
	// spikeFloor: and must also exceed this absolute floor, so a quiet
	// server whose P99 wobbles between 40µs and 200µs never trips.
	spikeFloor = 10 * time.Millisecond
	// spikeWarmup: samples with a nonzero P99 needed to seed the
	// baseline before spike detection arms.
	spikeWarmup = 5
	// ewmaShift: baseline += (p99 - baseline) >> ewmaShift. Shift 3
	// (alpha 1/8) makes the baseline track minutes-scale drift while
	// staying far behind a seconds-scale spike.
	ewmaShift = 3
	// satRunLength: consecutive samples in which the Saturated counter
	// grew before sustained saturation fires. One full queue is
	// backpressure working; three sample periods of it is an incident.
	satRunLength = 3
	// cooldownSamples: samples to stay quiet after firing, so one
	// incident produces one dump, not one per tick.
	cooldownSamples = 30
	// adoptRunLength: consecutive spiking samples after which the spike
	// is the new normal and becomes the baseline. Longer than
	// satRunLength and growRunLength, so a spike still fires the
	// watchdog and grows the pool; shorter than cooldownSamples, so a
	// permanent shift is absorbed before the watchdog could fire on it
	// again.
	adoptRunLength = 10
)

// p99Baseline is the EWMA P99 baseline that the watchdog and the
// autoscaler both judge spikes against. A spiking sample stays out of
// the EWMA, so one burst cannot drag the baseline toward it; a spike
// that persists for adoptRunLength samples is a regime change, and its
// P99 becomes the baseline. A sample with P99 = 0 (no completions in
// the interval) carries no signal and changes nothing. Not safe for
// concurrent use.
type p99Baseline struct {
	ewma time.Duration
	warm int // nonzero-P99 samples absorbed so far
	run  int // consecutive spiking samples
}

// spikes feeds one sample's P99 and reports whether it is a spike:
// above factor times the baseline and above floor, once spikeWarmup
// samples have seeded the baseline.
func (b *p99Baseline) spikes(p99 time.Duration, factor int, floor time.Duration) bool {
	if p99 <= 0 {
		return false
	}
	if b.warm >= spikeWarmup && p99 > floor && p99 > time.Duration(factor)*b.ewma {
		if b.run++; b.run < adoptRunLength {
			return true
		}
		b.ewma, b.run = p99, 0
		return false
	}
	b.run = 0
	b.warm++
	if b.ewma == 0 {
		b.ewma = p99
	} else {
		b.ewma += (p99 - b.ewma) >> ewmaShift
	}
	return false
}

// anomalyDetector classifies a stream of Metrics samples into discrete
// anomaly events. Two triggers:
//
//   - P99 spike: the interval P99 exceeds spikeFactor times its
//     p99Baseline and the absolute spikeFloor.
//   - Sustained saturation: ErrSaturated rejections grew in each of
//     satRunLength consecutive samples.
//
// After either fires the detector holds a cooldown before it can fire
// again. A regime change (permanently slower requests) fires once: the
// baseline adopts it within adoptRunLength samples, inside the
// cooldown. Not safe for concurrent use; the watchdog goroutine owns it.
type anomalyDetector struct {
	p99           p99Baseline
	lastSaturated uint64
	satRun        int
	cooldown      int
}

// observe feeds one Metrics sample and reports whether it completes an
// anomaly, with a short machine-greppable reason.
func (d *anomalyDetector) observe(m Metrics) (reason string, fired bool) {
	p99 := m.Latency.P99

	// Saturation run-length accounting happens every sample, cooldown
	// or not, so a rejection burst that spans the cooldown boundary is
	// judged on its full length.
	growing := m.Saturated > d.lastSaturated
	d.lastSaturated = m.Saturated
	if growing {
		d.satRun++
	} else {
		d.satRun = 0
	}

	spiking := d.p99.spikes(p99, spikeFactor, spikeFloor)

	if d.cooldown > 0 {
		d.cooldown--
		return "", false
	}
	switch {
	case spiking:
		d.cooldown = cooldownSamples
		return fmt.Sprintf("p99-spike: %v against baseline %v", p99, d.p99.ewma), true
	case d.satRun >= satRunLength:
		d.cooldown = cooldownSamples
		d.satRun = 0
		return fmt.Sprintf("sustained-saturation: rejections grew %d samples running (total %d)",
			satRunLength, m.Saturated), true
	}
	return "", false
}

// watchAnomalies is the watchdog goroutine: it feeds every
// AnomalyInterval sample to the detector and invokes Options.OnAnomaly
// when an anomaly fires. Started by New only when OnAnomaly is set;
// exits when the server shuts down.
func (s *Server) watchAnomalies() {
	iv := s.opts.AnomalyInterval
	if iv <= 0 {
		iv = DefaultAnomalyInterval
	}
	var det anomalyDetector
	s.watch(iv, func(m Metrics) {
		if reason, ok := det.observe(m); ok {
			s.opts.OnAnomaly(reason, m)
		}
	})
}
