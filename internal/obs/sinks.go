package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"dcfguard/internal/atomicio"
)

// RingSink keeps the last N records: the crash-forensics buffer that
// *experiment.SeedFailure dumps drain. Emission is O(1) and
// allocation-free after the first lap; the mutex makes Records safe to
// call from the failure-reporting goroutine while the watchdog may
// still be interrupting the run.
type RingSink struct {
	mu   sync.Mutex
	buf  []Record
	next int
	full bool
}

// NewRingSink returns a ring holding the last size records (min 1).
func NewRingSink(size int) *RingSink {
	if size < 1 {
		size = 1
	}
	return &RingSink{buf: make([]Record, size)}
}

// Emit stores r, evicting the oldest record when full.
func (s *RingSink) Emit(r Record) {
	s.mu.Lock()
	s.buf[s.next] = r
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
		s.full = true
	}
	s.mu.Unlock()
}

// Records returns the buffered records oldest-first. The slice is a
// copy; the ring keeps filling.
func (s *RingSink) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.full {
		out := make([]Record, s.next)
		copy(out, s.buf[:s.next])
		return out
	}
	out := make([]Record, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// Len returns the number of buffered records.
func (s *RingSink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.full {
		return len(s.buf)
	}
	return s.next
}

// jsonlBufSize is the JSONL sink's buffer: a trace reaches its
// temporary file in writes of this size.
const jsonlBufSize = 64 << 10

// JSONLSink renders every record as one JSON object per line. Lines
// collect in a fixed 64 KiB buffer; each time it fills, it is written
// to a hidden temporary file beside the target (created on that first
// flush, so a trace under 64 KiB touches no file before Close), and
// Close commits the file atomically (fsync and rename via
// internal/atomicio). A torn run never leaves a half-written trace at
// the target path; a sink that is never closed leaves its hidden
// temporary file behind. Fields are emitted in a fixed order and
// zero-valued optional fields are omitted, so traces diff cleanly
// across runs.
type JSONLSink struct {
	path string
	buf  []byte
	line []byte
	f    *atomicio.File // nil until the first flush
	err  error          // the first write error, returned by Close
	n    int
}

// NewJSONLSink returns a sink streaming records to path (committed on
// Close with mode 0644).
func NewJSONLSink(path string) *JSONLSink {
	return &JSONLSink{path: path, buf: make([]byte, 0, jsonlBufSize)}
}

// Emit appends one line. Records carry only static strings and scalars,
// so the hand-rolled encoder needs no reflection and no escaping.
func (s *JSONLSink) Emit(r Record) {
	s.line = appendRecordJSON(s.line[:0], r)
	if len(s.buf)+len(s.line) > cap(s.buf) {
		s.flush()
	}
	s.buf = append(s.buf, s.line...)
	s.n++
}

// flush writes the buffer to the temporary file, creating it on first
// use. After a write error the sink keeps encoding but discards output.
func (s *JSONLSink) flush() {
	if s.err == nil && s.f == nil {
		s.f, s.err = atomicio.Create(s.path, 0o644)
	}
	if s.err == nil {
		_, s.err = s.f.Write(s.buf)
	}
	s.buf = s.buf[:0]
}

// appendRecordJSON appends one record as a JSON line — the encoder
// behind JSONLSink and the -explain JSONL export.
func appendRecordJSON(b []byte, r Record) []byte {
	b = append(b, `{"cat":"`...)
	b = append(b, r.Cat.String()...)
	b = append(b, `","t":`...)
	b = strconv.AppendInt(b, int64(r.Time), 10)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(r.Node), 10)
	if r.Peer != NoNode {
		b = append(b, `,"peer":`...)
		b = strconv.AppendInt(b, int64(r.Peer), 10)
	}
	b = append(b, `,"event":"`...)
	b = append(b, r.Event...)
	b = append(b, '"')
	if r.Aux != "" {
		b = append(b, `,"aux":"`...)
		b = append(b, r.Aux...)
		b = append(b, '"')
	}
	if r.Seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendUint(b, uint64(r.Seq), 10)
	}
	b = appendFloatJSON(b, `,"a":`, r.A)
	b = appendFloatJSON(b, `,"b":`, r.B)
	b = appendFloatJSON(b, `,"c":`, r.C)
	b = appendFloatJSON(b, `,"d":`, r.D)
	b = appendFloatJSON(b, `,"e":`, r.E)
	b = appendRefJSON(b, `,"self":[`, r.Self)
	b = appendRefJSON(b, `,"parent":[`, r.Parent)
	return append(b, "}\n"...)
}

// appendFloatJSON appends key (`,"<name>":`) and v, eliding an exact
// zero. The elision is lossless: an absent field decodes back to 0,
// and no simulation state ever branches on this comparison.
func appendFloatJSON(b []byte, key string, v float64) []byte {
	if v == 0 { //detlint:allow floateq -- encoder field elision, exact zero is the wire default
		return b
	}
	b = append(b, key...)
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendRefJSON appends a causal reference as key (`,"<name>":[`)
// followed by `when,key,seq]`, eliding the zero (absent) reference so
// pre-flight-recorder traces keep their exact shape.
func appendRefJSON(b []byte, key string, f Ref) []byte {
	if f.IsZero() {
		return b
	}
	b = append(b, key...)
	b = strconv.AppendInt(b, int64(f.When), 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, f.Key, 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(f.Seq), 10)
	return append(b, ']')
}

// Len returns the number of records emitted.
func (s *JSONLSink) Len() int { return s.n }

// Close flushes the buffer and commits the trace atomically; a trace
// of no records commits an empty file. After a write error it removes
// the temporary file and returns that error. Call it once.
func (s *JSONLSink) Close() error {
	s.flush()
	if s.err != nil {
		if s.f != nil {
			s.f.Abort()
		}
		return s.err
	}
	return s.f.Commit()
}

// DiagnosisCSV renders the diagnosis trail — every CatDiagnosis record —
// as a CSV with one row per per-packet classification or proof, the
// figure-ready export of the paper's windowed diagnosis scheme. Records
// of other categories are ignored, so the sink can subscribe to a wider
// set. Written atomically on Close.
type DiagnosisCSV struct {
	path string
	buf  strings.Builder
	n    int
}

// DiagnosisCSVHeader is the column schema of the diagnosis-trail
// export (see DESIGN.md §9).
const DiagnosisCSVHeader = "time,monitor,sender,seq,event,diff,window_sum,thresh,verdict"

// NewDiagnosisCSV buffers diagnosis records destined for path.
func NewDiagnosisCSV(path string) *DiagnosisCSV {
	d := &DiagnosisCSV{path: path}
	d.buf.WriteString(DiagnosisCSVHeader + "\n")
	return d
}

// Emit appends one row for diagnosis records; other categories no-op.
func (d *DiagnosisCSV) Emit(r Record) {
	if r.Cat != CatDiagnosis {
		return
	}
	fmt.Fprintf(&d.buf, "%d,%d,%d,%d,%s,%g,%g,%g,%s\n",
		int64(r.Time), r.Node, r.Peer, r.Seq, r.Event, r.A, r.B, r.C, r.Aux)
	d.n++
}

// Len returns the number of buffered rows (excluding the header).
func (d *DiagnosisCSV) Len() int { return d.n }

// CSV returns the buffered document (header plus rows).
func (d *DiagnosisCSV) CSV() string { return d.buf.String() }

// Close writes the trail atomically.
func (d *DiagnosisCSV) Close() error {
	return atomicio.WriteFile(d.path, []byte(d.buf.String()), 0o644)
}

// captureChunk is the CaptureSink's allocation unit, in records.
const captureChunk = 4096

// CaptureSink retains every record in memory, in emission order: the
// input of post-run lineage analysis (Explain, macsim -explain).
// Records are stored in fixed chunks of 4096, so a long capture never
// regrows and recopies one contiguous slice. The mutex mirrors
// RingSink's — the failure-reporting goroutine may read while the
// watchdog is still winding a run down.
type CaptureSink struct {
	mu     sync.Mutex
	chunks [][]Record // every chunk but the last is full
	n      int
}

// NewCaptureSink returns an empty capture buffer.
func NewCaptureSink() *CaptureSink { return &CaptureSink{} }

// Emit appends r.
func (s *CaptureSink) Emit(r Record) {
	s.mu.Lock()
	if s.n%captureChunk == 0 {
		s.chunks = append(s.chunks, make([]Record, 0, captureChunk))
	}
	last := &s.chunks[len(s.chunks)-1]
	*last = append(*last, r)
	s.n++
	s.mu.Unlock()
}

// Records returns a copy of everything captured, oldest first, in one
// exact-size slice (nil when nothing was captured).
func (s *CaptureSink) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return nil
	}
	out := make([]Record, 0, s.n)
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out
}

// Len returns the number of captured records.
func (s *CaptureSink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}
