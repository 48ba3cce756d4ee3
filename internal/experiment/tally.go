package experiment

import (
	"dcfguard/internal/frame"
	"dcfguard/internal/obs"
	"dcfguard/internal/sim"
	"dcfguard/internal/stats"
)

// Result's metrics are read, after the run, from what the simulation
// records anyway: the monitors' CatDiagnosis trace records for the
// detection quantities (diagnosisTally), and the MAC nodes' own
// per-sender delivered bytes and delay tallies for the traffic ones
// (fillTraffic).

// SeriesPoint is one Figure-8 time bin.
type SeriesPoint struct {
	// Start is the bin's start time.
	Start sim.Time
	// CorrectPct is the correct-diagnosis percentage within the bin;
	// Packets the number of classified packets it is based on.
	CorrectPct float64
	Packets    int
}

// diagnosisTally is a trace sink on CatDiagnosis. Every "window" record
// is one classified packet (Peer is the sender, Aux the verdict, Time
// the classification instant) and every "proven" record one
// attempt-verification catch. Sharded runs replay records into it
// through the trace fan-in on the coordinator, so it needs no lock.
type diagnosisTally struct {
	misbehaving map[frame.NodeID]bool
	binSize     sim.Time

	// Classification counts split by ground truth.
	misFromMis    int // misbehaving sender, classified misbehaving (correct)
	okFromMis     int // misbehaving sender, classified well-behaved (miss)
	misFromHonest int // honest sender, classified misbehaving (misdiagnosis)
	okFromHonest  int // honest sender, classified well-behaved (correct)

	// bins counts misbehaving senders' classified packets per
	// Figure-8 bin: total, and mis of them classified misbehaving.
	bins   []binCount
	proven int
}

type binCount struct{ mis, total int }

// Emit implements obs.Sink.
func (d *diagnosisTally) Emit(r obs.Record) {
	if r.Event == "proven" {
		d.proven++
	}
	if r.Event != "window" {
		return
	}
	truth, mis := d.misbehaving[r.Peer], r.Aux == "diagnosed"
	switch {
	case truth && mis:
		d.misFromMis++
	case truth:
		d.okFromMis++
	case mis:
		d.misFromHonest++
	default:
		d.okFromHonest++
	}
	if truth && d.binSize > 0 {
		idx := int(r.Time / d.binSize)
		for len(d.bins) <= idx {
			d.bins = append(d.bins, binCount{})
		}
		d.bins[idx].total++
		if mis {
			d.bins[idx].mis++
		}
	}
}

// fill sets Result's detection metrics: the correct-diagnosis and
// misdiagnosis percentages of §5 (0 when no packet of that kind was
// classified), the Figure-8 series and the proof count.
func (d *diagnosisTally) fill(r *Result) {
	r.CorrectDiagnosisPct = pct(d.misFromMis, d.misFromMis+d.okFromMis)
	r.MisdiagnosisPct = pct(d.misFromHonest, d.misFromHonest+d.okFromHonest)
	// Never nil, so every Result encodes its series as a JSON list.
	r.Series = make([]SeriesPoint, len(d.bins))
	for i, b := range d.bins {
		r.Series[i] = SeriesPoint{Start: sim.Time(i) * d.binSize,
			CorrectPct: pct(b.mis, b.total), Packets: b.total}
	}
	r.ProvenMisbehaviors = d.proven
}

func pct(part, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// fillTraffic sets Result's goodput, fairness and delay metrics over
// the measured senders. delivered holds each sender's payload bytes
// delivered at any receiver; delay returns a sender's own MAC delay
// tally. A starved sender counts as 0 Kbps in the goodput means and
// Jain's index; a sender with no acknowledged packet is left out of
// the delay means.
func (r *Result) fillTraffic(measured []frame.NodeID, misbehaving map[frame.NodeID]bool,
	delivered map[frame.NodeID]int64, delay func(frame.NodeID) stats.Welford) {
	tps := make([]float64, len(measured))
	r.ThroughputBySender = make(map[frame.NodeID]float64, len(measured))
	for i, id := range measured {
		tps[i] = float64(delivered[id]) * 8 / r.Duration.Seconds() / 1000
		r.ThroughputBySender[id] = tps[i]
		r.TotalKbps += tps[i]
	}
	r.AvgHonestKbps, r.AvgMisbehaverKbps = splitMean(measured, misbehaving,
		func(i int) (float64, bool) { return tps[i], true })
	r.AvgHonestDelayMs, r.AvgMisbehaverDelayMs = splitMean(measured, misbehaving,
		func(i int) (float64, bool) {
			w := delay(measured[i])
			return w.Mean(), w.N() > 0
		})
	r.Fairness = stats.Jain(tps)
}

// splitMean averages val over ids, honest and misbehaving senders
// apart, in ids order; an id for which val reports false counts in
// neither mean.
func splitMean(ids []frame.NodeID, misbehaving map[frame.NodeID]bool,
	val func(i int) (float64, bool)) (honest, mis float64) {
	var sum [2]float64
	var n [2]int
	for i, id := range ids {
		v, ok := val(i)
		if !ok {
			continue
		}
		k := 0
		if misbehaving[id] {
			k = 1
		}
		sum[k] += v
		n[k]++
	}
	if n[0] > 0 {
		honest = sum[0] / float64(n[0])
	}
	if n[1] > 0 {
		mis = sum[1] / float64(n[1])
	}
	return honest, mis
}
