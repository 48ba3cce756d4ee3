package obs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"dcfguard/internal/atomicio"
)

// TestRecordSize: every record is copied by value into each sink, so
// its size is paid per record per sink. Cat shares Seq's word.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 152 {
		t.Fatalf("unsafe.Sizeof(Record{}) = %d, want 152", got)
	}
}

// TestCaptureSinkChunks: a capture spanning several chunks, the last
// one holding a single record, comes back whole and in order, and the
// copy Records returns does not alias the chunks.
func TestCaptureSinkChunks(t *testing.T) {
	const n = 3*captureChunk + 1
	s := NewCaptureSink()
	for i := 1; i <= n; i++ {
		s.Emit(Record{Seq: uint32(i)})
	}
	if s.Len() != n {
		t.Fatalf("len = %d, want %d", s.Len(), n)
	}
	got := s.Records()
	if len(got) != n || cap(got) != n {
		t.Fatalf("Records: len %d cap %d, want %d", len(got), cap(got), n)
	}
	for i, r := range got {
		if r.Seq != uint32(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	for i := range got {
		got[i].Seq = 0
	}
	for i, r := range s.Records() {
		if r.Seq != uint32(i+1) {
			t.Fatalf("mutating the copy changed captured record %d", i)
		}
	}
}

// sinkFixture is a record with every JSONL field set (~200 bytes).
var sinkFixture = Record{Cat: CatDiagnosis, Time: 123456789, Node: 4, Peer: 3,
	Event: "window", Aux: "ok", Seq: 77, A: 1.5, B: -2.25, C: 10, D: 12, E: 10.5,
	Self: Ref{When: 123456789, Key: 1 << 40, Seq: 77}, Parent: Ref{When: 120000000, Key: 1 << 40, Seq: 76}}

// dirEntries lists dir's file names.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestJSONLSinkStreams: a trace several buffers long reaches a hidden
// temporary file while the run is going, the target appears only at
// Close, and the committed bytes are every line in emission order.
func TestJSONLSinkStreams(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	s := NewJSONLSink(path)
	var want []byte
	for i := 0; len(want) < 3*jsonlBufSize+100; i++ {
		r := sinkFixture
		r.Seq = uint32(i)
		s.Emit(r)
		want = appendRecordJSON(want, r)
	}
	names := dirEntries(t, dir)
	if len(names) != 1 || names[0][0] != '.' {
		t.Fatalf("before Close the directory holds %q, want one hidden temporary file", names)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("committed %d bytes, want the %d bytes emitted", len(got), len(want))
	}
	if names := dirEntries(t, dir); len(names) != 1 {
		t.Fatalf("after Close the directory holds %q", names)
	}
}

// TestJSONLSinkSmallTraceTouchesNoFile: a trace under one buffer
// creates nothing on disk before Close.
func TestJSONLSinkSmallTraceTouchesNoFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	s := NewJSONLSink(path)
	for i := 0; i < 100; i++ {
		s.Emit(sinkFixture)
	}
	if names := dirEntries(t, dir); len(names) != 0 {
		t.Fatalf("a %d-record trace created %q before Close", s.Len(), names)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("after Close: %v, %v", fi, err)
	}
}

// TestJSONLSinkEmptyTrace: closing a sink that saw no record commits an
// empty file.
func TestJSONLSinkEmptyTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := NewJSONLSink(path).Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("empty trace: %v, %v", fi, err)
	}
}

// TestJSONLSinkKilledBeforeRename: a kill between fsync and rename
// fails Close and leaves no file at the target path.
func TestJSONLSinkKilledBeforeRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	killed := errors.New("killed")
	atomicio.TestHookBeforeRename = func(string, string) error { return killed }
	defer func() { atomicio.TestHookBeforeRename = nil }()
	s := NewJSONLSink(path)
	for i := 0; i < 2*jsonlBufSize/100; i++ {
		s.Emit(sinkFixture)
	}
	if err := s.Close(); !errors.Is(err, killed) {
		t.Fatalf("Close returned %v, want the kill error", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("target exists after a kill before rename: %v", err)
	}
}

// TestJSONLSinkMissingDir: a sink whose directory does not exist keeps
// the error from its first flush, returns it from Close and leaves no
// temporary file anywhere.
func TestJSONLSinkMissingDir(t *testing.T) {
	parent := t.TempDir()
	for _, records := range []int{0, 3 * jsonlBufSize / 100} {
		s := NewJSONLSink(filepath.Join(parent, "missing", "trace.jsonl"))
		for i := 0; i < records; i++ {
			s.Emit(sinkFixture)
		}
		if err := s.Close(); err == nil {
			t.Fatalf("%d records: Close into a missing directory succeeded", records)
		}
		if names := dirEntries(t, parent); len(names) != 0 {
			t.Fatalf("%d records: left %q behind", records, names)
		}
	}
}

// TestSinkEmitDoesNotAllocate: once warm, the JSONL sink encodes and
// flushes without allocating, and the capture sink's one chunk per
// 4096 records averages to zero allocations per record and allocates
// each record's bytes once.
func TestSinkEmitDoesNotAllocate(t *testing.T) {
	s := NewJSONLSink(filepath.Join(t.TempDir(), "trace.jsonl"))
	defer s.Close()
	for s.f == nil {
		s.Emit(sinkFixture)
	}
	if n := testing.AllocsPerRun(2000, func() { s.Emit(sinkFixture) }); n != 0 {
		t.Errorf("JSONLSink.Emit: %v allocations per record", n)
	}
	c := NewCaptureSink()
	if n := testing.AllocsPerRun(captureChunk, func() { c.Emit(sinkFixture) }); n != 0 {
		t.Errorf("CaptureSink.Emit: %v allocations per record over a chunk", n)
	}
	// A capture that regrew one slice would allocate several times this.
	const n = 4 * captureChunk
	c = NewCaptureSink()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		c.Emit(sinkFixture)
	}
	runtime.ReadMemStats(&after)
	if got, want := after.TotalAlloc-before.TotalAlloc, uint64(n*unsafe.Sizeof(Record{})); got > want+4<<10 {
		t.Errorf("capturing %d records allocated %d bytes, want about %d", n, got, want)
	}
}
