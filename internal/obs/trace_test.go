package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

func mkTrace(tr *Tracer, seq uint64) *Trace {
	at := time.Now()
	t := tr.StartAt(at, 1, seq, int64(seq)*1000)
	t.AddSpanDur("scan", at, time.Microsecond, nil)
	t.AddSpanDur("decode", at.Add(time.Microsecond), 2*time.Microsecond, nil)
	return t
}

func TestTracerRingBounds(t *testing.T) {
	tr := NewTracer(TracerConfig{Ring: 4})
	defer tr.Close()
	for seq := uint64(0); seq < 10; seq++ {
		tr.Finish(mkTrace(tr, seq))
	}
	recent := tr.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(recent))
	}
	// Oldest-first, and only the newest four survive.
	for i, want := range []uint64{6, 7, 8, 9} {
		if recent[i].Seq != want {
			t.Errorf("recent[%d].Seq = %d, want %d", i, recent[i].Seq, want)
		}
	}
	if got := tr.Recent(2); len(got) != 2 || got[0].Seq != 8 || got[1].Seq != 9 {
		t.Errorf("Recent(2) = %+v, want seqs 8,9", got)
	}
}

func TestTracerSpanOffsets(t *testing.T) {
	tr := NewTracer(TracerConfig{Ring: 2})
	defer tr.Close()
	at := time.Now()
	trace := tr.StartAt(at, 7, 3, 500)
	trace.AddSpanDur("scan", at, 10*time.Microsecond, nil)
	trace.AddSpanDur("decode", at.Add(15*time.Microsecond), 5*time.Microsecond, errors.New("boom"))
	if trace.Spans[0].StartNS != 0 {
		t.Errorf("first span starts at %d ns, want 0", trace.Spans[0].StartNS)
	}
	if trace.Spans[1].StartNS != 15_000 {
		t.Errorf("second span starts at %d ns, want 15000", trace.Spans[1].StartNS)
	}
	if trace.Spans[1].Err != "boom" {
		t.Errorf("span error %q, want boom", trace.Spans[1].Err)
	}
	if trace.SID != 7 || trace.Seq != 3 || trace.Offset != 500 {
		t.Errorf("identity %+v not preserved", trace)
	}
}

func TestTracerSinkExportsNDJSON(t *testing.T) {
	var sink bytes.Buffer
	tr := NewTracer(TracerConfig{Ring: 8, Sink: &sink})
	for seq := uint64(0); seq < 5; seq++ {
		tr.Finish(mkTrace(tr, seq))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&sink)
	var lines int
	for sc.Scan() {
		var trace Trace
		if err := json.Unmarshal(sc.Bytes(), &trace); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if trace.Seq != uint64(lines) {
			t.Errorf("line %d carries seq %d", lines, trace.Seq)
		}
		lines++
	}
	if lines != 5 {
		t.Fatalf("sink holds %d lines, want 5", lines)
	}
}

// TestTracerCloseStopsExporter is the goroutine-leak guard: Close must
// tear the exporter down, be idempotent, and make later Finish calls
// harmless no-ops.
func TestTracerCloseStopsExporter(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		var sink bytes.Buffer
		tr := NewTracer(TracerConfig{Ring: 4, Sink: &sink})
		tr.Finish(mkTrace(tr, 0))
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
		tr.Finish(mkTrace(tr, 1)) // after Close: dropped silently
		if got := len(tr.Recent(0)); got != 1 {
			t.Fatalf("post-close Finish landed in ring (%d traces)", got)
		}
	}
	// Let any leaked exporters park before counting.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d → %d: exporter leak", before, after)
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestTracerCloseSurfacesSinkError(t *testing.T) {
	tr := NewTracer(TracerConfig{Ring: 2, Sink: failingWriter{}})
	// A bufio.Writer only hits the sink once its buffer fills or flushes,
	// so the error surfaces at Close.
	tr.Finish(mkTrace(tr, 0))
	if err := tr.Close(); err == nil {
		t.Fatal("sink write error lost")
	}
}

// blockingWriter parks every Write until release closes, announcing the
// first one on entered.
type blockingWriter struct {
	entered, release chan struct{}
	once             sync.Once
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestTracerSinkDropsCounted: once a blocked sink has parked the exporter
// and the hand-off queue (4 × Ring) is full, every further Finish moves
// the trace.sink_drops counter by one.
func TestTracerSinkDropsCounted(t *testing.T) {
	w := &blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
	tr := NewTracer(TracerConfig{Ring: 2, Sink: w})
	tr.Finish(mkTrace(tr, 0))
	<-w.entered // the exporter is stuck flushing trace 0
	before := Std().Counter("trace.sink_drops").Value()
	const queued, dropped = 4 * 2, 5
	for seq := uint64(1); seq <= queued+dropped; seq++ {
		tr.Finish(mkTrace(tr, seq))
	}
	if got := Std().Counter("trace.sink_drops").Value() - before; got != dropped {
		t.Fatalf("trace.sink_drops moved by %d, want %d", got, dropped)
	}
	close(w.release)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	if trace := tr.StartAt(time.Now(), 0, 0, 0); trace != nil {
		t.Fatal("nil tracer allocated a trace")
	}
	tr.Finish(nil)
	if got := tr.Recent(5); got != nil {
		t.Fatalf("nil tracer returned traces %v", got)
	}
	if err := tr.WriteRecent(&bytes.Buffer{}, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var trace *Trace
	trace.AddSpan("x", time.Now(), nil) // must not panic
	if trace.TraceID() != 0 {
		t.Fatal("nil trace has an ID")
	}
}
