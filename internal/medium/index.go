// Channel model v2: per-pair counter RNG plus a spatial neighbor index.
//
// Each shadowing sample is a pure function of (base key, transmitter
// ID, observer ID, transmitter frame index[, coherence segment]) via
// rng.Mix64/rng.CounterNorm, so a skipped pair costs zero draws and no
// sample depends on iteration order. On top of that, a uniform grid
// over attached positions bounds each transmitter's interaction radius
// (the largest distance where mean + rng.NormBound·σ can still clear
// the lowest carrier-sense/receive threshold in the network) and
// precomputes per-transmitter neighbor lists, so Transmit iterates only
// O(reachable) observers. Lists are rebuilt lazily at the first
// Transmit after the last Attach. Delivery is one fan run per
// transmission, one queue entry at its end (see fanOutV2).
package medium

import (
	"math"
	"slices"

	"dcfguard/internal/frame"
	"dcfguard/internal/phys"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
)

// neighbor is one feasible (transmitter, observer) link in the v2
// index: the observer, the deterministic mean RX power of the pair, the
// pair's counter-RNG key, and the pair's thresholds mapped to uniform
// space — uCs/uRx are Φ((thresh−mean)/σ), so the per-frame sensing and
// decoding decisions are plain comparisons against the raw uniform and
// the normal CDF is inverted only for decodable arrivals.
type neighbor struct {
	obs      *node
	meanDBm  float64
	pairKey  uint64
	uCs, uRx float64
}

// pairKeyFor derives the counter-RNG key of the ordered (tx, obs) link.
func (m *Medium) pairKeyFor(tx, obs frame.NodeID) uint64 {
	return rng.Mix64(rng.Mix64(m.v2Base, uint64(tx)), uint64(obs))
}

// buildIndex rebuilds the v2 neighbor lists. A pair is feasible when
// mean + rng.NormBound·σ — an upper bound no counter draw can beat —
// reaches the observer's carrier-sense or receive threshold. Radii use the network-wide lowest threshold, a
// safe over-approximation under heterogeneous radios; the per-pair
// filter is exact.
//
// The build is O(n·k) for k candidates per transmitter: a phys.Grid
// with cells at least the largest radius yields each transmitter's
// candidates from its 3×3 cell block, a candidate beyond the
// transmitter's own radius is dropped before any logarithm (beyond it,
// MaxRangeFor guarantees the mean misses every threshold), and all
// lists are carved from one backing array sized by the candidate count.
func (m *Medium) buildIndex() {
	slack := rng.NormBound * m.cfg.Model.SigmaDB
	minThresh := math.Inf(1)
	for _, nd := range m.nodes {
		if t := nd.radio.CsThreshDBm; t < minThresh {
			minThresh = t
		}
		if t := nd.radio.RxThreshDBm; t < minThresh {
			minThresh = t
		}
	}
	// MaxRangeFor is a bisection; run it once per distinct transmit
	// power (a network usually shares one radio).
	reachByPower := make(map[float64]float64, 1)
	pts := make([]phys.Point, len(m.nodes))
	maxReach := 0.0
	for i, nd := range m.nodes {
		pts[i] = nd.pos
		reach, ok := reachByPower[nd.radio.TxPowerDBm]
		if !ok {
			reach = m.cfg.Model.MaxRangeFor(nd.radio.TxPowerDBm, minThresh-slack)
			reachByPower[nd.radio.TxPowerDBm] = reach
		}
		nd.reachM = reach
		if reach > maxReach {
			maxReach = reach
		}
	}

	// Candidate observers per transmitter, as m.nodes indices in
	// ascending order — ascending ID — so same-instant events enqueue
	// in a fixed order (results are order-independent, goldens are
	// not). cand[ends[i-1]:ends[i]] belongs to m.nodes[i].
	var cand []int32
	ends := make([]int, len(m.nodes))
	if m.bruteForce {
		// Test reference: every ordered pair, no pruning, no grid.
		for i := range m.nodes {
			for j := range m.nodes {
				if j != i {
					cand = append(cand, int32(j))
				}
			}
			ends[i] = len(cand)
		}
	} else {
		g := phys.NewGrid(pts, maxReach)
		var block []int32
		for i, tx := range m.nodes {
			from := len(cand)
			block = g.AppendNear(block[:0], tx.pos)
			for _, j := range block {
				if int(j) != i && tx.pos.Distance(pts[j]) <= tx.reachM {
					cand = append(cand, j)
				}
			}
			slices.Sort(cand[from:])
			ends[i] = len(cand)
		}
	}

	sigma := m.cfg.Model.SigmaDB
	all := make([]neighbor, 0, len(cand))
	from := 0
	for i, tx := range m.nodes {
		first := len(all)
		for _, j := range cand[from:ends[i]] {
			obs := m.nodes[j]
			mean := m.cfg.Model.MeanRxPowerDBm(tx.radio.TxPowerDBm, tx.pos.Distance(obs.pos))
			if !m.bruteForce {
				bound := mean + slack
				if bound < obs.radio.CsThreshDBm && bound < obs.radio.RxThreshDBm {
					continue
				}
			}
			all = append(all, neighbor{
				obs:     obs,
				meanDBm: mean,
				pairKey: m.pairKeyFor(tx.id, obs.id),
				uCs:     uniformThresh(obs.radio.CsThreshDBm, mean, sigma),
				uRx:     uniformThresh(obs.radio.RxThreshDBm, mean, sigma),
			})
		}
		tx.neighbors = all[first:len(all):len(all)]
		from = ends[i]
	}
	m.cacheDirty = false
}

// uniformThresh maps a dBm threshold to the uniform-space boundary
// Φ((thresh−mean)/σ): a draw with uniform u clears the threshold
// exactly when u ≥ Φ((thresh−mean)/σ), because mean + σ·Φ⁻¹(u) ≥ thresh
// ⇔ u ≥ Φ((thresh−mean)/σ) (Φ monotone). With σ = 0 the decision is
// deterministic: 0 when the mean clears the threshold, 2 (unreachable —
// uniforms are < 1) when it does not.
func uniformThresh(threshDBm, meanDBm, sigma float64) float64 {
	if sigma <= 0 {
		if meanDBm >= threshDBm {
			return 0
		}
		return 2
	}
	return rng.NormCDF((threshDBm - meanDBm) / sigma)
}

// fanOut draws tx's next frame at each precomputed feasible neighbor,
// from the pair's counter stream indexed by the transmitter's frame
// counter, and gathers the sensed observers in ascending ID order into
// runs[observer shard], opening a run for each empty slot. Sensing and
// decoding compare the raw uniform against the neighbor's precomputed
// boundaries; only decodable observers, whose power feeds capture
// resolution, invert the CDF. Both channel models fan out here, so at
// equal seeds v3 sees the very draws v2 does.
func (m *Medium) fanOut(tx *node, f frame.Frame, when, end sim.Time, runs []*fanRun) {
	// One Mix64 base per transmission: the frame index's contribution to
	// every per-observer key is the same (frameIdx+1)·γ term, so it is
	// computed once and each observer pays one add + finalize.
	// Mix64Pre(pairKey, delta) ≡ Mix64(pairKey, frameIdx) bit-for-bit
	// (rng.TestMix64BatchedIdentity), so draws — and goldens — are
	// unchanged.
	delta := rng.Mix64Delta(tx.txCount)
	sigma := m.cfg.Model.SigmaDB
	for i := range tx.neighbors {
		nb := &tx.neighbors[i]
		u := rng.CounterUniform(rng.Mix64Pre(nb.pairKey, delta), 0)
		if u < nb.uCs {
			continue // neither sensed nor decodable
		}
		r := runs[nb.obs.shard]
		if r == nil {
			r = m.openRun(tx, nb.obs.sched, f, when, end)
			runs[nb.obs.shard] = r
		}
		// Decodable implies sensed: RxThresh ≥ CsThresh ⇒ uRx ≥ uCs.
		o := fanObs{n: nb.obs}
		if u >= nb.uRx {
			o.decodable = true
			o.power = nb.meanDBm + sigma*rng.InvNormCDF(u)
		}
		r.obs = append(r.obs, o)
	}
	tx.txCount++
}

// fanOutV2 delivers one transmission under channel model v2 as one fan
// run. Its arrival half runs inside the transmit event: each sensed
// observer's carrier goes busy, then a decodable arrival is resolved.
// The transmitter joins as the last member, and one queue entry at
// `end` completes the run (completeRun): each observer's arrival
// completes and its carrier goes idle, then the transmitter's does.
//
// The batching is exact. The entries it replaces (one per observer in
// ascending ID, then the transmitter's busy-end) were scheduled back to
// back, since the only code run between them, the observers'
// CarrierBusy (mac.Node, core.Watchdog), records or cancels but never
// schedules. So they held consecutive FIFO seqs at one instant, and no
// other event could fire between them; Cancel's compact keeps every
// entry's (when, seq). The run's entry takes the first of those seqs,
// and sim.Scheduler.SubstepFIFO counts each later member as one fired
// event, so EventsFired is unchanged. The coherence path keeps its
// per-observer entries and its own self busy-end (arriveAtV2Coherent).
func (m *Medium) fanOutV2(tx *node, f frame.Frame, now, end sim.Time) {
	if m.cfg.CoherenceInterval > 0 {
		delta := rng.Mix64Delta(tx.txCount)
		tx.txCount++
		for i := range tx.neighbors {
			nb := &tx.neighbors[i]
			frameKey := rng.Mix64Pre(nb.pairKey, delta)
			power := nb.meanDBm + m.cfg.Model.SigmaDB*rng.CounterNorm(frameKey, 0)
			m.arriveAtV2Coherent(nb, f, power, frameKey, now, end)
		}
		m.sched.AtArg(end, busyEndEvent, tx)
		return
	}
	r := m.openRun(tx, m.sched, f, now, end)
	m.fanOut(tx, f, now, end, []*fanRun{r})
	for i := range r.obs {
		m.arrive(r, &r.obs[i], now)
	}
	r.obs = append(r.obs, fanObs{n: tx})
	m.sched.AtArg(end, fanCompleteEvent, r)
}

// arriveAtV2Coherent is the coherence path: the first interval reuses
// the frame-level draw (so decodable ⇒ initially sensed), later
// intervals re-draw the sensing decision from the frame's counter
// stream, and adjacent sensed intervals merge into maximal busy runs
// (so segment boundaries do not produce zero-length idle blips).
func (m *Medium) arriveAtV2Coherent(nb *neighbor, f frame.Frame, power float64, frameKey uint64, start, end sim.Time) {
	obs := nb.obs
	if power >= obs.radio.RxThreshDBm {
		m.admitArrival(obs, f, power, start, end)
	}

	segPower := power
	ctr := uint64(1)
	var runStart sim.Time
	inRun := false
	for segStart := start; segStart < end; segStart += m.cfg.CoherenceInterval {
		sensed := segPower >= obs.radio.CsThreshDBm
		if sensed && !inRun {
			runStart, inRun = segStart, true
		} else if !sensed && inRun {
			m.scheduleBusyRun(obs, runStart, segStart, start)
			inRun = false
		}
		segPower = nb.meanDBm + m.cfg.Model.SigmaDB*rng.CounterNorm(frameKey, ctr)
		ctr++
	}
	if inRun {
		m.scheduleBusyRun(obs, runStart, end, start)
	}
}
