// Package topo builds the paper's simulation topologies: the Figure-3
// star (N senders on a 150 m circle around receiver R, optionally with
// the two 500 Kbps interferer flows at ±500 m) and uniform random
// topologies (40 nodes in 1500 m × 700 m with neighbor flows).
package topo

import (
	"fmt"
	"slices"

	"dcfguard/internal/frame"
	"dcfguard/internal/phys"
	"dcfguard/internal/rng"
)

// Flow is one traffic flow. RateBps 0 means backlogged (saturating).
type Flow struct {
	Src, Dst frame.NodeID
	RateBps  int64
}

// Topology is a set of positioned nodes plus the flows between them.
// Node IDs are dense, 0..len(Positions)-1, and index Positions.
type Topology struct {
	Positions []phys.Point
	Flows     []Flow
	// Measured lists the flow sources whose throughput and diagnosis
	// metrics the experiment reports (interferer flows are excluded).
	Measured []frame.NodeID
	// Misbehaving lists the ground-truth misbehaving senders.
	Misbehaving []frame.NodeID
	// Receivers lists the nodes that act as receivers of measured flows
	// (they run the Monitor under the CORRECT protocol).
	Receivers []frame.NodeID
}

// Validate checks internal consistency.
func (t *Topology) Validate() error {
	n := frame.NodeID(len(t.Positions))
	for _, f := range t.Flows {
		if f.Src < 0 || f.Src >= n || f.Dst < 0 || f.Dst >= n {
			return fmt.Errorf("topo: flow %d→%d outside [0, %d)", f.Src, f.Dst, n)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("topo: self flow at node %d", f.Src)
		}
		if f.RateBps < 0 {
			return fmt.Errorf("topo: negative rate on flow %d→%d", f.Src, f.Dst)
		}
	}
	for _, id := range t.Misbehaving {
		if !contains(t.Measured, id) {
			return fmt.Errorf("topo: misbehaving node %d is not a measured sender", id)
		}
	}
	return nil
}

func contains(ids []frame.NodeID, id frame.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// StarReceiver is the receiver's node ID in Star topologies.
const StarReceiver frame.NodeID = 0

// Star builds the Figure-3 setup: receiver R (ID 0) at the origin,
// nSenders backlogged senders (IDs 1..nSenders) evenly spaced on a
// 150 m circle, all sending 512 B packets to R. With twoFlow, four
// extra nodes host the interferer flows: A→B on the left of R and C→D
// on the right, each endpoint ≈500 m from R, carrying 500 Kbps CBR.
// misbehaving lists the sender IDs (1-based) that will misbehave.
func Star(nSenders int, twoFlow bool, misbehaving []frame.NodeID) *Topology {
	if nSenders < 1 {
		panic(fmt.Sprintf("topo: Star with %d senders", nSenders))
	}
	t := &Topology{
		Positions: make([]phys.Point, 0, nSenders+5),
		Receivers: []frame.NodeID{StarReceiver},
	}
	t.Positions = append(t.Positions, phys.Point{}) // receiver at origin
	for i := 0; i < nSenders; i++ {
		id := frame.NodeID(i + 1)
		t.Positions = append(t.Positions, phys.OnCircle(phys.Point{}, 150, i, nSenders))
		t.Flows = append(t.Flows, Flow{Src: id, Dst: StarReceiver})
		t.Measured = append(t.Measured, id)
	}
	if twoFlow {
		base := frame.NodeID(nSenders + 1)
		a, b, c, d := base, base+1, base+2, base+3
		t.Positions = append(t.Positions,
			phys.Point{X: -500, Y: 100},  // A
			phys.Point{X: -500, Y: -100}, // B
			phys.Point{X: 500, Y: 100},   // C
			phys.Point{X: 500, Y: -100},  // D
		)
		t.Flows = append(t.Flows,
			Flow{Src: a, Dst: b, RateBps: 500_000},
			Flow{Src: c, Dst: d, RateBps: 500_000},
		)
	}
	for _, id := range misbehaving {
		if id < 1 || int(id) > nSenders {
			panic(fmt.Sprintf("topo: misbehaving id %d outside senders 1..%d", id, nSenders))
		}
		t.Misbehaving = append(t.Misbehaving, id)
	}
	return t
}

// Random builds the Figure-9 setup: n nodes placed uniformly at random
// in a width × height area; every node opens one backlogged flow to a
// random neighbor within maxLink metres (or its nearest node when it
// has no neighbor in range); nMis distinct flow sources, chosen at
// random, misbehave. The neighbor is drawn uniformly from the in-range
// nodes in ascending ID order; the nearest-node fallback breaks
// distance ties toward the smaller ID. A spatial grid keeps the build
// O(n·k) for k nodes per neighborhood: candidates come from the 3×3
// cell block around each node, and the fallback from an exact ring
// search.
func Random(n int, width, height, maxLink float64, nMis int, src *rng.Source) *Topology {
	if n < 2 || nMis < 0 || nMis > n {
		panic(fmt.Sprintf("topo: Random(n=%d, nMis=%d)", n, nMis))
	}
	t := &Topology{
		Positions: make([]phys.Point, n),
		Flows:     make([]Flow, 0, n),
		Measured:  make([]frame.NodeID, 0, n),
	}
	for i := range t.Positions {
		t.Positions[i] = phys.Point{
			X: src.Float64() * width,
			Y: src.Float64() * height,
		}
	}
	g := phys.NewGrid(t.Positions, maxLink)
	var block []int32
	var candidates []frame.NodeID
	for i, p := range t.Positions {
		id := frame.NodeID(i)
		candidates = candidates[:0]
		if maxLink >= 0 {
			block = g.AppendNear(block[:0], p)
			for _, j := range block {
				if int(j) != i && p.Distance(t.Positions[j]) <= maxLink {
					candidates = append(candidates, frame.NodeID(j))
				}
			}
			slices.Sort(candidates)
		}
		var dst frame.NodeID
		if len(candidates) > 0 {
			dst = candidates[src.Intn(len(candidates))]
		} else {
			dst = frame.NodeID(g.Nearest(p, i))
		}
		t.Flows = append(t.Flows, Flow{Src: id, Dst: dst})
		t.Measured = append(t.Measured, id)
	}
	t.Receivers = receiversOf(n, t.Flows)
	// Pick nMis distinct misbehaving sources.
	perm := src.Perm(n)
	for _, p := range perm[:nMis] {
		t.Misbehaving = append(t.Misbehaving, frame.NodeID(p))
	}
	slices.Sort(t.Misbehaving)
	return t
}

// Line builds a chain of n nodes spaced `spacing` metres apart, with a
// backlogged flow from each node to its right neighbor. With spacing
// near the carrier-sense limit this is the classic hidden/exposed
// terminal testbed.
func Line(n int, spacing float64) *Topology {
	if n < 2 || spacing <= 0 {
		panic(fmt.Sprintf("topo: Line(%d, %v)", n, spacing))
	}
	t := &Topology{Positions: make([]phys.Point, n)}
	for i := 0; i < n; i++ {
		t.Positions[i] = phys.Point{X: float64(i) * spacing}
	}
	for i := 0; i < n-1; i++ {
		src, dst := frame.NodeID(i), frame.NodeID(i+1)
		t.Flows = append(t.Flows, Flow{Src: src, Dst: dst})
		t.Measured = append(t.Measured, src)
	}
	t.Receivers = receiversOf(n, t.Flows)
	return t
}

// Grid builds a cols × rows lattice with the given spacing; each node
// opens a backlogged flow to its right neighbor (last column sends
// left), giving a dense-reuse workload.
func Grid(cols, rows int, spacing float64) *Topology {
	if cols < 2 || rows < 1 || spacing <= 0 {
		panic(fmt.Sprintf("topo: Grid(%d, %d, %v)", cols, rows, spacing))
	}
	t := &Topology{Positions: make([]phys.Point, cols*rows)}
	id := func(c, r int) frame.NodeID { return frame.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t.Positions[id(c, r)] = phys.Point{X: float64(c) * spacing, Y: float64(r) * spacing}
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			src := id(c, r)
			var dst frame.NodeID
			if c+1 < cols {
				dst = id(c+1, r)
			} else {
				dst = id(c-1, r)
			}
			t.Flows = append(t.Flows, Flow{Src: src, Dst: dst})
			t.Measured = append(t.Measured, src)
		}
	}
	t.Receivers = receiversOf(len(t.Positions), t.Flows)
	return t
}

// receiversOf returns the distinct destinations of flows among nodes
// 0..n-1, in ascending ID order.
func receiversOf(n int, flows []Flow) []frame.NodeID {
	isDst := make([]bool, n)
	for _, f := range flows {
		if f.Dst >= 0 && int(f.Dst) < n {
			isDst[f.Dst] = true
		}
	}
	var ids []frame.NodeID
	for id, ok := range isDst {
		if ok {
			ids = append(ids, frame.NodeID(id))
		}
	}
	return ids
}
