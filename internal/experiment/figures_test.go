package experiment

import (
	"strconv"
	"strings"
	"testing"

	"dcfguard/internal/frame"
	"dcfguard/internal/sim"
	"dcfguard/internal/topo"
)

// tiny returns the smallest useful figure config so these tests stay
// fast; the benches and cmd/figures run the larger configurations.
func tiny() Config {
	return Config{
		Duration:     3 * sim.Second,
		Seeds:        Seeds(2),
		PMs:          []int{0, 80},
		NetworkSizes: []int{1, 4},
		Fig8PMs:      []int{80},
	}
}

// cell parses "12.3±4.5" or "12.3" into its mean.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	if i := strings.IndexRune(s, '±'); i >= 0 {
		s = s[:i]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestFig4Shape(t *testing.T) {
	tb, err := Fig4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Correct diagnosis must rise sharply from PM=0 to PM=80 in
	// ZERO-FLOW, with near-zero misdiagnosis.
	lowPM, highPM := tb.Rows[0], tb.Rows[1]
	if c0, c80 := cell(t, lowPM[1]), cell(t, highPM[1]); c80 < c0+50 {
		t.Fatalf("zero-flow correct%%: PM0=%v PM80=%v, want sharp rise", c0, c80)
	}
	if m := cell(t, highPM[2]); m > 5 {
		t.Fatalf("zero-flow misdiagnosis %v%%, want ≈0", m)
	}
	// TWO-FLOW pays misdiagnosis for sensitivity.
	if m := cell(t, highPM[4]); m <= 0 {
		t.Fatalf("two-flow misdiagnosis %v%%, want > 0", m)
	}
}

func TestFig5Shape(t *testing.T) {
	tb, _, err := Fig5WithDelay(tiny())
	if err != nil {
		t.Fatal(err)
	}
	high := tb.Rows[1] // PM=80
	msb80211, avg80211 := cell(t, high[1]), cell(t, high[2])
	msbCorrect, avgCorrect := cell(t, high[3]), cell(t, high[4])
	if msb80211 < 2*avg80211 {
		t.Fatalf("802.11 at PM=80: MSB=%v AVG=%v, want large unfair gain", msb80211, avg80211)
	}
	if msbCorrect > 1.5*avgCorrect {
		t.Fatalf("CORRECT at PM=80: MSB=%v AVG=%v, want containment", msbCorrect, avgCorrect)
	}
	if avgCorrect < avg80211 {
		t.Fatalf("CORRECT honest AVG=%v below 802.11's %v under attack", avgCorrect, avg80211)
	}
}

func TestFig6And7Shape(t *testing.T) {
	t6, t7, err := Fig6And7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(t6.Rows) != 2 || len(t7.Rows) != 2 {
		t.Fatalf("rows = %d, %d", len(t6.Rows), len(t7.Rows))
	}
	// CORRECT tracks 802.11 throughput within 15% at every size
	// (zero-flow columns 1 and 2).
	for _, row := range t6.Rows {
		std, corr := cell(t, row[1]), cell(t, row[2])
		if corr < 0.85*std || corr > 1.15*std {
			t.Fatalf("n=%s: CORRECT %v vs 802.11 %v, want ≈equal", row[0], corr, std)
		}
	}
	// Per-node throughput decreases with network size.
	if cell(t, t6.Rows[1][1]) >= cell(t, t6.Rows[0][1]) {
		t.Fatal("per-node throughput did not fall with more senders")
	}
	// Fairness stays high without misbehavior.
	for _, row := range t7.Rows {
		for _, c := range row[1:] {
			if v := cell(t, c); v < 0.9 {
				t.Fatalf("fairness %v below 0.9 in honest network", v)
			}
		}
	}
}

func TestFig8Shape(t *testing.T) {
	tb, err := Fig8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The last bin must be at a high plateau for PM=80.
	last := tb.Rows[len(tb.Rows)-1]
	if last[1] == "-" {
		last = tb.Rows[len(tb.Rows)-2]
	}
	if v := cell(t, last[1]); v < 70 {
		t.Fatalf("PM=80 plateau = %v%%, want high", v)
	}
}

func TestFig9Shape(t *testing.T) {
	cfg := tiny()
	cfg.PMs = []int{80}
	tb, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := tb.Rows[0]
	if v := cell(t, row[1]); v < 50 {
		t.Fatalf("random-topology correct%% = %v at PM=80", v)
	}
	// 802.11 misbehavers beat honest nodes; CORRECT narrows the gap.
	msb80211, avg80211 := cell(t, row[3]), cell(t, row[4])
	msbC, avgC := cell(t, row[5]), cell(t, row[6])
	if msb80211 <= avg80211 {
		t.Fatalf("802.11 random: MSB=%v AVG=%v", msb80211, avg80211)
	}
	if msbC/avgC >= msb80211/avg80211 {
		t.Fatalf("CORRECT ratio %.2f not below 802.11 ratio %.2f",
			msbC/avgC, msb80211/avg80211)
	}
}

func TestAblationPenaltyFactorShape(t *testing.T) {
	cfg := tiny()
	cfg.PMs = []int{80}
	tb, err := AblationPenaltyFactor(cfg, []float64{0.5, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	row := tb.Rows[0]
	weak, strong := cell(t, row[1]), cell(t, row[3])
	if strong >= weak {
		t.Fatalf("penalty factor 1.5 (MSB=%v) not stronger than 0.5 (MSB=%v)", strong, weak)
	}
}

func TestAblationAlphaShape(t *testing.T) {
	cfg := tiny()
	cfg.PMs = []int{50}
	tb, err := AblationAlpha(cfg, []float64{0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 || len(tb.Rows[0]) != 5 {
		t.Fatalf("table shape %v", tb.Rows)
	}
}

func TestAblationWindowShape(t *testing.T) {
	cfg := tiny()
	cfg.PMs = []int{50}
	tb, err := AblationWindow(cfg, []WindowPoint{{W: 5, Thresh: 20}, {W: 5, Thresh: 5}})
	if err != nil {
		t.Fatal(err)
	}
	row := tb.Rows[0]
	// A lower threshold can only increase both rates.
	if cell(t, row[3]) < cell(t, row[1])-5 {
		t.Fatalf("lower THRESH reduced correct%%: %v vs %v", row[3], row[1])
	}
}

func TestAblationAttemptVerification(t *testing.T) {
	cfg := tiny()
	cfg.PMs = []int{80}
	tb, err := AblationAttemptVerification(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	offProofs, onProofs := cell(t, tb.Rows[0][5]), cell(t, tb.Rows[1][5])
	if offProofs != 0 {
		t.Fatalf("proofs without verification = %v", offProofs)
	}
	if onProofs <= 0 {
		t.Fatalf("verification produced no proofs against a liar (%v)", onProofs)
	}
}

func TestExtHiddenTerminal(t *testing.T) {
	cfg := tiny()
	tb, err := ExtHiddenTerminal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	var basic, rtscts float64
	for _, row := range tb.Rows {
		switch row[0] {
		case "basic":
			basic = cell(t, row[1])
		case "rts/cts":
			rtscts = cell(t, row[1])
		}
	}
	// The RTS/CTS handshake must recover substantial goodput from the
	// hidden-terminal collisions.
	if rtscts < 1.3*basic {
		t.Fatalf("RTS/CTS %.1f vs basic %.1f: hidden-terminal protection missing", rtscts, basic)
	}
}

func TestAblationAdaptiveThresh(t *testing.T) {
	cfg := tiny()
	cfg.PMs = []int{0, 80}
	tb, err := AblationAdaptiveThresh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 { // 2 scenarios x 2 PMs
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// In TWO-FLOW at PM=0, the adaptive fence must cut misdiagnosis
	// versus the static threshold.
	for _, row := range tb.Rows {
		if row[0] == "two-flow" && row[1] == "0" {
			static, adaptive := cell(t, row[3]), cell(t, row[5])
			if adaptive >= static {
				t.Fatalf("adaptive misdiagnosis %v not below static %v", adaptive, static)
			}
		}
	}
}

func TestScenarioWatchdogDetectsCollusion(t *testing.T) {
	s := DefaultScenario()
	s.Duration = 5 * sim.Second
	s.Protocol = ProtocolCorrect
	s.PM = 100
	s.Topo = receiverPairTopo()
	s.ColludingReceivers = []frame.NodeID{1}
	s.Watchdog = true
	// Mark sender 3 as the misbehaving one in the topology.
	base := s.Topo
	s.Topo = func(seed uint64) *topo.Topology {
		tp := base(seed)
		tp.Misbehaving = []frame.NodeID{3}
		return tp
	}
	r, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.CollusionsDetected != 1 {
		t.Fatalf("collusions detected = %d, want 1", r.CollusionsDetected)
	}
	if len(r.ColludingPairs) != 1 || r.ColludingPairs[0] != [2]frame.NodeID{3, 1} {
		t.Fatalf("colluding pairs = %v", r.ColludingPairs)
	}
}

func TestScenarioWatchdogQuietOnHonestNetwork(t *testing.T) {
	s := DefaultScenario()
	s.Duration = 5 * sim.Second
	s.Topo = StarTopo(4, false)
	s.Watchdog = true
	r, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.CollusionsDetected != 0 {
		t.Fatalf("honest network produced %d collusion verdicts", r.CollusionsDetected)
	}
}

func TestAblationReceiverMisbehavior(t *testing.T) {
	cfg := tiny()
	tb, err := AblationReceiverMisbehavior(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Greedy receiver without audit: senders detect nothing and the
	// greedy flow starves the honest one. With audit: detections occur
	// and fairness is restored.
	var greedyNoAudit, greedyAudit []string
	for _, row := range tb.Rows {
		if row[0] == "greedy(0)" {
			if row[1] == "off" {
				greedyNoAudit = row
			} else {
				greedyAudit = row
			}
		}
	}
	if cell(t, greedyNoAudit[5]) != 0 {
		t.Fatalf("audit-off detections = %v", greedyNoAudit[5])
	}
	if cell(t, greedyAudit[5]) <= 0 {
		t.Fatal("audit-on produced no greedy detections")
	}
	gainNoAudit := cell(t, greedyNoAudit[3]) / cell(t, greedyNoAudit[2])
	gainAudit := cell(t, greedyAudit[3]) / cell(t, greedyAudit[2])
	if gainNoAudit < 1.3 {
		t.Fatalf("unaudited greedy flow gained only %.2fx", gainNoAudit)
	}
	if gainAudit >= gainNoAudit {
		t.Fatalf("audit did not reduce the greedy gain: %.2f vs %.2f", gainAudit, gainNoAudit)
	}
}
