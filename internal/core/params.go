package core

import (
	"fmt"

	"dcfguard/internal/sim"
)

// AssignMode selects how the Monitor chooses the base (pre-penalty)
// backoff it assigns to senders.
type AssignMode int

const (
	// AssignRandom draws uniformly from [0, CWmin], the paper's default.
	AssignRandom AssignMode = iota + 1
	// AssignVerifiable derives the base from the public function G so
	// senders can audit the receiver (§4.4 extension).
	AssignVerifiable
	// AssignGreedy models a *misbehaving* receiver that always assigns
	// zero base backoff to pull data faster (§4.4's threat model).
	AssignGreedy
)

// String returns the mode name.
func (m AssignMode) String() string {
	switch m {
	case AssignRandom:
		return "random"
	case AssignVerifiable:
		return "verifiable"
	case AssignGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("AssignMode(%d)", int(m))
	}
}

// Params configures the detection, correction and diagnosis schemes.
type Params struct {
	// Alpha is the deviation tolerance α of equation (1): a packet
	// deviates when B_act < α·B_exp. The paper uses 0.9.
	Alpha float64
	// Window is W, the number of recent packets whose (B_exp − B_act)
	// differences the diagnosis scheme sums. The paper uses 5.
	Window int
	// Thresh is THRESH: when the windowed sum exceeds it, packets are
	// diagnosed as coming from a misbehaving sender. The paper uses 20
	// slots (4 slots per packet with W = 5).
	Thresh float64
	// PenaltyFactor scales the measured deviation D into the total
	// penalty P: P = PenaltyFactor · D. The paper uses D plus an
	// unspecified "additional penalty" from its companion TR, i.e. a
	// factor strictly above 1. The default, 1.25, was calibrated so
	// Figure 5's shape holds: the misbehaver is pinned near its fair
	// share up to PM ≈ 90% without over-punishing moderate misbehavior
	// (see ablation A1 and EXPERIMENTS.md).
	PenaltyFactor float64
	// PenaltyCap bounds the penalty in slots (0 disables). It prevents
	// unbounded assignment growth against PM≈100% senders, which ignore
	// assignments anyway and are caught by diagnosis instead.
	PenaltyCap int
	// BlockDiagnosed, when set, makes the receiver refuse CTS to
	// senders whose current window classifies them as misbehaving
	// (§4.3's "MAC layer may refuse to accept packets").
	BlockDiagnosed bool
	// VerifyAttempts enables §4.1's attempt-number verification:
	// occasionally drop an RTS intentionally and check that the
	// retransmission increments the attempt field.
	VerifyAttempts bool
	// VerifyDropProb is the per-RTS probability of an intentional drop
	// while attempt verification is enabled.
	VerifyDropProb float64
	// AdaptiveThresh replaces the static Thresh with the learned Tukey
	// fence over recent window sums (the adaptive selection the paper
	// defers to future work; see AdaptiveThresh in this package).
	AdaptiveThresh bool
	// AssignMode selects the base-assignment rule (see AssignMode).
	AssignMode AssignMode
	// WaivePenalties models a *misbehaving* receiver that never adds
	// correction penalties (with AssignGreedy this is the colluding
	// receiver of §4.4, detectable only by a third-party Watchdog).
	WaivePenalties bool
	// HistoryHorizon bounds how much carrier-sense history the idle-slot
	// observer retains. It must exceed the longest plausible interval
	// between an ACK and the next RTS from the same sender: a B_act
	// window that starts before the oldest retained transition counts
	// the channel as idle from the window start up to that transition,
	// whatever its real state was. The monitor's per-packet cost does
	// not grow with the horizon.
	HistoryHorizon sim.Time
}

// DefaultParams returns the configuration used for the paper's
// evaluation: α = 0.9, W = 5, THRESH = 20 slots.
func DefaultParams() Params {
	return Params{
		Alpha:          0.9,
		Window:         5,
		Thresh:         20,
		PenaltyFactor:  1.25,
		PenaltyCap:     1000,
		AssignMode:     AssignRandom,
		VerifyDropProb: 0.01,
		HistoryHorizon: 2 * sim.Second,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.Alpha <= 0 || p.Alpha > 1:
		return fmt.Errorf("core: alpha %v out of (0, 1]", p.Alpha)
	case p.Window < 1:
		return fmt.Errorf("core: window %d must be at least 1", p.Window)
	case p.Thresh < 0:
		return fmt.Errorf("core: thresh %v must be non-negative", p.Thresh)
	case p.PenaltyFactor < 0:
		return fmt.Errorf("core: penalty factor %v must be non-negative", p.PenaltyFactor)
	case p.PenaltyCap < 0:
		return fmt.Errorf("core: penalty cap %d must be non-negative", p.PenaltyCap)
	case p.VerifyDropProb < 0 || p.VerifyDropProb > 1:
		return fmt.Errorf("core: verify drop probability %v out of [0, 1]", p.VerifyDropProb)
	case p.HistoryHorizon <= 0:
		return fmt.Errorf("core: history horizon %v must be positive", p.HistoryHorizon)
	}
	switch p.AssignMode {
	case AssignRandom, AssignVerifiable, AssignGreedy:
	default:
		return fmt.Errorf("core: invalid assign mode %d", p.AssignMode)
	}
	return nil
}
