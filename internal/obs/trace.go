package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Per-frame trace spans. A Trace is allocated when the stream scanner
// commits to a frame and follows it through the pipeline, collecting one
// Span per stage (scan → sync → queue → decode → detect → deliver). The
// trace ID is joined to the frame's Verdict via Verdict.TraceID (and the
// trace itself records the verdict's Seq), so an operator can go from
// "frame #4812 was slow" to exactly which stage the time went to.
//
// Ownership is sequential: exactly one goroutine touches a Trace at a
// time (scanner, then a worker, then the delivery goroutine), with the
// handoffs ordered by the pipeline's existing queue and session mutexes,
// so spans need no lock of their own. All Tracer and Trace methods are
// nil-receiver-safe: a nil *Tracer disables tracing with no other code
// change and near-zero overhead.

// Span is one stage's share of a frame's wall time. StartNS is the
// offset from the trace's start (the scan step that found the frame).
type Span struct {
	Stage   string `json:"stage"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Err     string `json:"err,omitempty"`
}

// Trace is the full stage timeline of one frame.
type Trace struct {
	// ID is process-unique and joined to Verdict.TraceID.
	ID uint64 `json:"trace_id"`
	// SID identifies the session (connection/capture) within the engine.
	SID uint64 `json:"sid"`
	// Seq is the frame's sequence number within its session — the join
	// key to Verdict.Seq.
	Seq uint64 `json:"seq"`
	// Proto names the session's victim-PHY protocol, when the pipeline
	// labels traces (cmd/hideseekd sessions do).
	Proto string `json:"proto,omitempty"`
	// Offset is the frame's absolute sample offset in the stream.
	Offset int64 `json:"offset"`
	// Start is the wall-clock time of the scan step that found the frame.
	Start time.Time `json:"start"`
	Spans []Span    `json:"spans"`

	anchor time.Time // monotonic anchor for StartNS offsets
}

// AddSpanDur appends a span with an explicit duration.
func (t *Trace) AddSpanDur(stage string, start time.Time, d time.Duration, err error) {
	if t == nil {
		return
	}
	s := Span{Stage: stage, StartNS: start.Sub(t.anchor).Nanoseconds(), DurNS: d.Nanoseconds()}
	if err != nil {
		s.Err = err.Error()
	}
	t.Spans = append(t.Spans, s)
}

// AddSpan appends a span lasting from start until now.
func (t *Trace) AddSpan(stage string, start time.Time, err error) {
	t.AddSpanDur(stage, start, time.Since(start), err)
}

// TraceID returns the ID (0 for a nil trace — the "tracing off" value
// Verdict.TraceID omits).
func (t *Trace) TraceID() uint64 {
	if t == nil {
		return 0
	}
	return t.ID
}

// TracerConfig sizes a Tracer.
type TracerConfig struct {
	// Ring bounds how many completed traces stay queryable in memory
	// (default 256).
	Ring int
	// Sink, when set, receives every completed trace as one NDJSON line.
	// Writes happen on a dedicated exporter goroutine with a bounded
	// hand-off queue: a slow sink drops traces (counted in the
	// trace.sink_drops counter) instead of stalling the pipeline.
	Sink io.Writer
}

// Tracer collects completed traces into a bounded ring and optionally
// exports them as NDJSON. All methods are safe for concurrent use and
// nil-receiver-safe.
type Tracer struct {
	next atomic.Uint64

	mu     sync.Mutex
	ring   []*Trace
	head   int // next write position
	count  int
	closed bool

	sinkCh   chan *Trace
	sinkDone chan struct{}
	sinkErr  error
}

// traceSinkDrops counts traces the bounded sink hand-off dropped, across
// every Tracer of the process.
var traceSinkDrops = C("trace.sink_drops")

// NewTracer builds a tracer. Close must be called when a Sink is
// configured, or the exporter goroutine (and its buffered writes) leak.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Ring <= 0 {
		cfg.Ring = 256
	}
	tr := &Tracer{ring: make([]*Trace, cfg.Ring)}
	if cfg.Sink != nil {
		tr.sinkCh = make(chan *Trace, 4*cfg.Ring)
		tr.sinkDone = make(chan struct{})
		go tr.exportLoop(cfg.Sink)
	}
	return tr
}

// StartAt begins a trace anchored at the given stage-start time.
func (tr *Tracer) StartAt(at time.Time, sid, seq uint64, offset int64) *Trace {
	if tr == nil {
		return nil
	}
	return &Trace{
		ID:     tr.next.Add(1),
		SID:    sid,
		Seq:    seq,
		Offset: offset,
		Start:  at.UTC(),
		anchor: at,
		Spans:  make([]Span, 0, 6),
	}
}

// Finish records a completed trace into the ring and hands it to the
// sink exporter, if any. Finishing on a closed (or nil) tracer is a
// silent no-op so shutdown never races the last in-flight frames.
func (tr *Tracer) Finish(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	tr.mu.Lock()
	if tr.closed {
		tr.mu.Unlock()
		return
	}
	tr.ring[tr.head] = t
	tr.head = (tr.head + 1) % len(tr.ring)
	if tr.count < len(tr.ring) {
		tr.count++
	}
	// Non-blocking sink hand-off, still under mu: Close also holds mu to
	// flip closed before it closes the channel, so a send can never race
	// the close.
	if tr.sinkCh != nil {
		select {
		case tr.sinkCh <- t:
		default:
			traceSinkDrops.Inc()
		}
	}
	tr.mu.Unlock()
}

// Recent returns up to max completed traces, oldest first (all of them
// when max <= 0).
func (tr *Tracer) Recent(max int) []*Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := tr.count
	if max > 0 && max < n {
		n = max
	}
	out := make([]*Trace, 0, n)
	for i := tr.count - n; i < tr.count; i++ {
		out = append(out, tr.ring[(tr.head-tr.count+i+2*len(tr.ring))%len(tr.ring)])
	}
	return out
}

// WriteRecent renders up to max ring traces as NDJSON (the same lines a
// Sink receives).
func (tr *Tracer) WriteRecent(w io.Writer, max int) error {
	if tr == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, t := range tr.Recent(max) {
		if err := enc.Encode(t); err != nil {
			return err
		}
	}
	return nil
}

// exportLoop is the exporter goroutine: one NDJSON line per trace on a
// buffered writer, flushed when the queue momentarily empties and again
// at close.
func (tr *Tracer) exportLoop(sink io.Writer) {
	defer close(tr.sinkDone)
	bw := bufio.NewWriter(sink)
	enc := json.NewEncoder(bw)
	var err error
	for t := range tr.sinkCh {
		if err == nil {
			err = enc.Encode(t)
		}
		if err == nil && len(tr.sinkCh) == 0 {
			err = bw.Flush()
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	tr.mu.Lock()
	tr.sinkErr = err
	tr.mu.Unlock()
}

// Close stops accepting traces, drains and stops the exporter goroutine,
// and reports the first sink write error. Idempotent; safe on nil.
func (tr *Tracer) Close() error {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	if tr.closed {
		tr.mu.Unlock()
		return tr.sinkErr
	}
	tr.closed = true
	ch := tr.sinkCh
	tr.mu.Unlock()
	if ch != nil {
		close(ch)
		<-tr.sinkDone
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.sinkErr != nil {
		return fmt.Errorf("obs: trace sink: %w", tr.sinkErr)
	}
	return nil
}
