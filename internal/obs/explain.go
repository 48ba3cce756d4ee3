package obs

import (
	"fmt"
	"strings"

	"dcfguard/internal/frame"
	"dcfguard/internal/sim"
)

// Flight-recorder forensics: reconstruct the evidence chain behind a
// diagnosis decision from a captured trace (DESIGN.md §14). The monitor
// links records causally — a "diagnosis" verdict transition points at
// the "window" update that tipped it, window updates chain backward
// through their predecessors, and each exchange's deviation record
// points at the backoff assignment it was measured against — so walking
// Parent references backward recovers exactly the per-packet evidence
// (assigned vs. observed backoff, window sum, threshold margin) that
// produced the verdict. This is pure post-processing over immutable
// records: nothing here can perturb a run.

// EvidenceStep is one diagnosed window's worth of evidence: the window
// update itself plus the co-located deviation record and the assignment
// decision it traces back to, when those were captured.
type EvidenceStep struct {
	// Window is the per-packet "window" record: A = B_exp − B_act,
	// B = window sum, C = threshold, D = B_exp, E = B_act.
	Window Record
	// Deviation is the equation-(1) record of the same exchange, nil
	// when the packet did not deviate (or the category was off).
	Deviation *Record
	// Assign is the backoff-assignment decision the sender was counting
	// against, nil when the backoff category was not captured.
	Assign *Record
}

// Explanation is the reconstructed lineage of one decision record.
type Explanation struct {
	// Decision is the anchor: a "diagnosis" verdict transition or a
	// "proven" attempt-verification record.
	Decision Record
	// Steps holds the window evidence chain, oldest first. Empty for
	// "proven" decisions (their proof is the attempt numbers on the
	// record itself).
	Steps []EvidenceStep
	// Truncated reports that a Parent reference pointed outside the
	// capture (ring eviction or a narrower category set).
	Truncated bool
}

// exchangeKey co-locates records of one monitor/sender exchange.
type exchangeKey struct {
	node frame.NodeID
	peer frame.NodeID
	seq  uint32
	when sim.Time
}

// Explain reconstructs the evidence chains behind every decision about
// node in recs: "diagnosis" verdict transitions and "proven"
// attempt-verification proofs where node is the accused sender
// (NoNode explains every node's decisions). Records may come from a
// CaptureSink, a crash-ring tail, or a parsed JSONL trace; order does
// not matter — lineage is recovered from the causal references alone.
func Explain(recs []Record, node frame.NodeID) []Explanation {
	bySelf := make(map[Ref]Record)
	devByExchange := make(map[exchangeKey]int)
	for i, r := range recs {
		if !r.Self.IsZero() {
			bySelf[r.Self] = r
		}
		if r.Event == "deviation" {
			devByExchange[exchangeKey{r.Node, r.Peer, r.Seq, r.Time}] = i
		}
	}

	var out []Explanation
	for _, r := range recs {
		if r.Event != "diagnosis" && r.Event != "proven" {
			continue
		}
		if node != NoNode && r.Peer != node {
			continue
		}
		e := Explanation{Decision: r}
		if r.Event == "diagnosis" {
			// E on the decision records how many packets the verdict
			// summed; walk that many windows back (everything reachable
			// when the count is absent).
			depth := int(r.E)
			if depth <= 0 {
				depth = len(recs)
			}
			ref := r.Parent
			for i := 0; i < depth && !ref.IsZero(); i++ {
				win, ok := bySelf[ref]
				if !ok {
					e.Truncated = true
					break
				}
				step := EvidenceStep{Window: win}
				if di, ok := devByExchange[exchangeKey{win.Node, win.Peer, win.Seq, win.Time}]; ok {
					dev := recs[di]
					step.Deviation = &dev
					if a, ok := bySelf[dev.Parent]; ok {
						step.Assign = &a
					}
				}
				e.Steps = append(e.Steps, step)
				ref = win.Parent
			}
			// Oldest first reads like the run unfolded.
			for i, j := 0, len(e.Steps)-1; i < j; i, j = i+1, j-1 {
				e.Steps[i], e.Steps[j] = e.Steps[j], e.Steps[i]
			}
		}
		out = append(out, e)
	}
	return out
}

// Text renders the explanation as a human-readable forensic report.
func (e Explanation) Text() string {
	var b strings.Builder
	d := e.Decision
	switch d.Event {
	case "proven":
		fmt.Fprintf(&b, "t=%d monitor %d PROVED sender %d misbehaving: retransmission of seq %d carried attempt %g (expected > %g)\n",
			int64(d.Time), d.Node, d.Peer, d.Seq, d.A, d.B)
	default:
		verb := "DIAGNOSED"
		if d.Aux == "cleared" {
			verb = "cleared"
		}
		fmt.Fprintf(&b, "t=%d monitor %d %s sender %d: window sum %g vs thresh %g (margin %+g) at seq %d\n",
			int64(d.Time), d.Node, verb, d.Peer, d.B, d.C, d.A, d.Seq)
	}
	if len(e.Steps) > 0 {
		fmt.Fprintf(&b, "  evidence (%d window updates, oldest first):\n", len(e.Steps))
	}
	for _, s := range e.Steps {
		w := s.Window
		fmt.Fprintf(&b, "    t=%-10d seq=%-6d b_exp=%g b_act=%g diff=%+g sum=%g/%g [%s]",
			int64(w.Time), w.Seq, w.D, w.E, w.A, w.B, w.C, w.Aux)
		if s.Deviation != nil {
			fmt.Fprintf(&b, " deviation=%.4g penalty=%g", s.Deviation.A, s.Deviation.B)
		}
		if s.Assign != nil {
			fmt.Fprintf(&b, " assigned=%g(base %g+pen %g @t=%d)",
				s.Assign.C, s.Assign.A, s.Assign.B, int64(s.Assign.Time))
		}
		b.WriteString("\n")
	}
	if e.Truncated {
		b.WriteString("  (chain truncated: older evidence fell outside the capture)\n")
	}
	return b.String()
}

// JSONL renders the explanation as trace-format JSON lines: the decision
// first, then the evidence records oldest first (windows with their
// deviation and assignment records interleaved).
func (e Explanation) JSONL() string {
	b := appendRecordJSON(nil, e.Decision)
	for _, s := range e.Steps {
		if s.Assign != nil {
			b = appendRecordJSON(b, *s.Assign)
		}
		if s.Deviation != nil {
			b = appendRecordJSON(b, *s.Deviation)
		}
		b = appendRecordJSON(b, s.Window)
	}
	return string(b)
}
