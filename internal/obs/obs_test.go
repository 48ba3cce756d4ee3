package obs

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"

	"dcfguard/internal/sim"
)

func TestParseCategories(t *testing.T) {
	cases := []struct {
		spec string
		want CategorySet
		err  bool
	}{
		{"", 0, false},
		{"all", AllCategories(), false},
		{"mac", CategorySet(0).Set(CatMACState), false},
		{"mac,backoff", CategorySet(0).Set(CatMACState).Set(CatBackoff), false},
		{" diagnosis , channel ", CategorySet(0).Set(CatDiagnosis).Set(CatChannel), false},
		{"deviation,all", AllCategories(), false},
		{"bogus", 0, true},
		{"mac,bogus", 0, true},
	}
	for _, c := range cases {
		got, err := ParseCategories(c.spec)
		if c.err {
			if err == nil {
				t.Errorf("ParseCategories(%q): want error, got %v", c.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseCategories(%q): %v", c.spec, err)
		} else if got != c.want {
			t.Errorf("ParseCategories(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestCategoryRoundTrip(t *testing.T) {
	for c := Category(0); c < numCategories; c++ {
		s, err := ParseCategories(c.String())
		if err != nil {
			t.Fatalf("category %d name %q does not parse: %v", c, c.String(), err)
		}
		if !s.Has(c) || s != CategorySet(0).Set(c) {
			t.Errorf("round trip of %v = %v", c, s)
		}
	}
	if got := AllCategories().String(); got != "all" {
		t.Errorf("AllCategories().String() = %q", got)
	}
}

// collectSink records everything it sees.
type collectSink struct {
	recs []Record
}

func (s *collectSink) Emit(r Record) { s.recs = append(s.recs, r) }

func TestBusRouting(t *testing.T) {
	var nilBus *Bus
	if nilBus.Enabled(CatMACState) {
		t.Fatal("nil bus reports enabled")
	}
	nilBus.Emit(Record{Cat: CatMACState}) // must not panic

	b := &Bus{}
	if b.Enabled(CatBackoff) {
		t.Fatal("empty bus reports enabled")
	}
	macSink := &collectSink{}
	allSink := &collectSink{}
	b.Subscribe(CategorySet(0).Set(CatMACState), macSink)
	b.Subscribe(AllCategories(), allSink)

	if !b.Enabled(CatMACState) || !b.Enabled(CatChannel) {
		t.Fatal("subscribed categories not enabled")
	}
	b.Emit(Record{Cat: CatMACState, Event: "contend"})
	b.Emit(Record{Cat: CatChannel, Event: "busy"})
	if len(macSink.recs) != 1 || macSink.recs[0].Event != "contend" {
		t.Errorf("mac sink got %v", macSink.recs)
	}
	if len(allSink.recs) != 2 {
		t.Errorf("all sink got %d records, want 2", len(allSink.recs))
	}
}

func TestConfigBuild(t *testing.T) {
	var nilCfg *Config
	if rt := nilCfg.Build(); rt != nil {
		t.Fatal("nil config built a runtime")
	}
	if rt := (&Config{}).Build(); rt != nil {
		t.Fatal("zero config built a runtime")
	}
	// Nil runtime accessors all no-op.
	var rt *Runtime
	if rt.Reg() != nil || rt.TraceBus() != nil || rt.TraceTail() != nil {
		t.Fatal("nil runtime accessors not nil")
	}

	rt = (&Config{Metrics: true}).Build()
	if rt == nil || rt.Reg() == nil || rt.TraceBus() != nil {
		t.Fatalf("metrics-only runtime wrong: %+v", rt)
	}

	sink := &collectSink{}
	rt = (&Config{Categories: AllCategories(), Sinks: []Sink{sink}, RingSize: 4}).Build()
	if rt.Reg() != nil {
		t.Fatal("tracing-only runtime has a registry")
	}
	for i := 0; i < 6; i++ {
		rt.TraceBus().Emit(Record{Cat: CatChannel, Seq: uint32(i + 1)})
	}
	if len(sink.recs) != 6 {
		t.Errorf("user sink got %d records", len(sink.recs))
	}
	tail := rt.TraceTail()
	if len(tail) != 4 || tail[0].Seq != 3 || tail[3].Seq != 6 {
		t.Errorf("ring tail = %v", tail)
	}

	shared := NewRegistry()
	rt = (&Config{Registry: shared}).Build()
	if rt.Reg() != shared {
		t.Fatal("pre-built registry not used")
	}

	if err := (&Config{RingSize: -1}).Validate(); err == nil {
		t.Fatal("negative ring size validated")
	}
	if err := nilCfg.Validate(); err != nil {
		t.Fatalf("nil config validate: %v", err)
	}
}

// TestRuntimeSubscribe: Subscribe builds a bus-only runtime from nil,
// adds a sink to an existing runtime without feeding the added category
// to the ring or Config.Sinks, and records the category for the
// per-shard front buses built afterwards.
func TestRuntimeSubscribe(t *testing.T) {
	chanOnly := CategorySet(0).Set(CatChannel)
	var none *Runtime
	sink := &collectSink{}
	rt := none.Subscribe(chanOnly, sink)
	if rt == nil || rt.Reg() != nil || rt.TraceTail() != nil || !rt.TraceBus().Enabled(CatChannel) {
		t.Fatalf("bus-only runtime wrong: %+v", rt)
	}

	user := &collectSink{}
	rt = (&Config{Categories: CategorySet(0).Set(CatMACState), Sinks: []Sink{user}}).Build()
	if got := rt.Subscribe(chanOnly, sink); got != rt {
		t.Fatal("Subscribe on a runtime returned another runtime")
	}
	if want := chanOnly.Set(CatMACState); rt.cats != want {
		t.Errorf("shard fronts would mirror %v, want %v", rt.cats, want)
	}
	rt.TraceBus().Emit(Record{Cat: CatChannel, Seq: 1})
	rt.TraceBus().Emit(Record{Cat: CatMACState, Seq: 2})
	if len(sink.recs) != 1 || sink.recs[0].Seq != 1 {
		t.Errorf("subscribed sink got %v, want the channel record", sink.recs)
	}
	if len(user.recs) != 1 || user.recs[0].Seq != 2 || len(rt.TraceTail()) != 1 {
		t.Errorf("config sink got %v and ring %v, want the mac record only", user.recs, rt.TraceTail())
	}
}

func TestCounterGaugeHistogramNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(1.5, 10)
	if v, at := g.Value(); v != 0 || at != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(3)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram value")
	}
	var r *Registry
	if r.Counter("x", NoNode, "y") != nil || r.Gauge("x", NoNode, "y") != nil ||
		r.Histogram("x", NoNode, "y", nil) != nil {
		t.Fatal("nil registry resolved a handle")
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestRegistryHandles(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("mac", 3, "tx_success")
	c2 := r.Counter("mac", 3, "tx_success")
	if c1 != c2 {
		t.Fatal("same key resolved to distinct counters")
	}
	c1.Inc()
	c2.Add(2)
	if c1.Value() != 3 {
		t.Errorf("counter = %d, want 3", c1.Value())
	}

	g := r.Gauge("monitor", 0, "window_sum")
	g.Set(12.5, sim.Time(42))
	if v, at := g.Value(); v != 12.5 || at != 42 {
		t.Errorf("gauge = %v@%v", v, at)
	}

	h := r.Histogram("monitor", 0, "diff", []float64{0, 10, 100})
	for _, v := range []float64{-5, 0, 3, 10, 11, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("hist count = %d", h.Count())
	}
	if h.Sum() != 1019 {
		t.Errorf("hist sum = %g", h.Sum())
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("snapshot histograms = %d", len(snap.Histograms))
	}
	// v <= bound goes to that bucket: {-5,0} <=0; {3,10} <=10; {11} <=100; {1000} overflow.
	want := []uint64{2, 2, 1, 1}
	got := snap.Histograms[0].Buckets
	if len(got) != len(want) {
		t.Fatalf("buckets = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("medium", NoNode, "collisions").Inc()
	r.Counter("mac", 2, "tx_success").Inc()
	r.Counter("mac", 0, "tx_success").Inc()
	r.Counter("mac", 0, "rx_deliver").Inc()
	s := r.Snapshot()
	var keys []string
	for _, c := range s.Counters {
		keys = append(keys, c.Scope+"/"+c.Name)
	}
	want := []string{"mac/rx_deliver", "mac/tx_success", "mac/tx_success", "medium/collisions"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("snapshot order %v, want %v", keys, want)
		}
	}
	// And the JSON form is stable.
	j1, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(r.Snapshot())
	if string(j1) != string(j2) {
		t.Fatal("registry and snapshot JSON differ")
	}
}

// TestRegistryConcurrent exercises handle resolution and updates from
// several goroutines so the race detector can vet the sweep-shared
// registry claim.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("mac", NoNode, "tx_success")
			g := r.Gauge("mac", NoNode, "queue_len")
			h := r.Histogram("mac", NoNode, "attempts", []float64{1, 2, 4})
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Set(float64(i), sim.Time(i))
				h.Observe(float64(i % 5))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("mac", NoNode, "tx_success").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("mac", NoNode, "attempts", nil).Count(); got != 8000 {
		t.Fatalf("concurrent histogram count = %d, want 8000", got)
	}
}

func TestRingSink(t *testing.T) {
	s := NewRingSink(3)
	if got := s.Records(); len(got) != 0 {
		t.Fatalf("empty ring records = %v", got)
	}
	s.Emit(Record{Seq: 1})
	s.Emit(Record{Seq: 2})
	if got := s.Records(); len(got) != 2 || got[0].Seq != 1 {
		t.Fatalf("partial ring = %v", got)
	}
	s.Emit(Record{Seq: 3})
	s.Emit(Record{Seq: 4})
	s.Emit(Record{Seq: 5})
	got := s.Records()
	if len(got) != 3 || got[0].Seq != 3 || got[2].Seq != 5 {
		t.Fatalf("wrapped ring = %v", got)
	}
	if s.Len() != 3 {
		t.Fatalf("ring len = %d", s.Len())
	}
	if NewRingSink(0) == nil || NewRingSink(-3).buf == nil {
		t.Fatal("degenerate ring size")
	}
}

func TestJSONLSink(t *testing.T) {
	path := t.TempDir() + "/trace.jsonl"
	s := NewJSONLSink(path)
	s.Emit(Record{Cat: CatMACState, Time: 100, Node: 2, Peer: NoNode, Event: "contend", Aux: "idle"})
	s.Emit(Record{Cat: CatDiagnosis, Time: 250, Node: 0, Peer: 3, Event: "window", Seq: 7, A: 1.5, B: -2, C: 10})
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %q", lines)
	}
	// Every line must be valid JSON with the expected fields.
	var m map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &m); err != nil {
		t.Fatalf("line 0 not JSON: %v\n%s", err, lines[0])
	}
	if m["cat"] != "mac" || m["event"] != "contend" || m["aux"] != "idle" || m["t"] != float64(100) {
		t.Errorf("line 0 = %v", m)
	}
	if _, ok := m["peer"]; ok {
		t.Errorf("NoNode peer serialised: %v", m)
	}
	if err := json.Unmarshal([]byte(lines[1]), &m); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if m["peer"] != float64(3) || m["seq"] != float64(7) || m["a"] != 1.5 || m["b"] != float64(-2) || m["c"] != float64(10) {
		t.Errorf("line 1 = %v", m)
	}
}

func TestDiagnosisCSV(t *testing.T) {
	path := t.TempDir() + "/diag.csv"
	d := NewDiagnosisCSV(path)
	d.Emit(Record{Cat: CatChannel, Event: "busy"}) // filtered out
	d.Emit(Record{Cat: CatDiagnosis, Time: 500, Node: 0, Peer: 2, Seq: 9,
		Event: "window", A: 3.5, B: 12, C: 10, Aux: "diagnosed"})
	if d.Len() != 1 {
		t.Fatalf("len = %d", d.Len())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 2 || lines[0] != DiagnosisCSVHeader {
		t.Fatalf("csv = %q", data)
	}
	if lines[1] != "500,0,2,9,window,3.5,12,10,diagnosed" {
		t.Errorf("row = %q", lines[1])
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Cat: CatBackoff, Time: 123, Node: 1, Peer: 4, Event: "assign", Seq: 9, A: 31}
	s := r.String()
	for _, want := range []string{"backoff", "node=1", "peer=4", "assign", "seq=9", "a=31"} {
		if !strings.Contains(s, want) {
			t.Errorf("Record.String() = %q missing %q", s, want)
		}
	}
	r2 := Record{Cat: CatMACState, Node: 0, Peer: NoNode, Event: "contend", Aux: "idle"}
	if s2 := r2.String(); strings.Contains(s2, "peer=") || !strings.Contains(s2, "contend<-idle") {
		t.Errorf("Record.String() = %q", s2)
	}
}
