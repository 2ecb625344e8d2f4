package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hideseek/internal/iq"
	"hideseek/internal/phy"
	"hideseek/internal/stream"
)

// The traced run replays each workload's exact inputs in-process with one
// engine worker (or one attacker goroutine), wrapping every public call
// the program makes at a layer boundary in a span. Spans stay in memory
// until the run ends.

// Span names.
const (
	spanProcess       = "stream.Engine.Process"
	spanReadBlock     = "iq.ReaderCF32.ReadBlock"
	spanEncode        = "json.Encoder.Encode"
	spanForge         = "forge"
	spanEmulate       = "emulation.Emulate(replica)"
	spanInterpolate   = "dsp.Interpolator.ProcessInto"
	spanAnalyze       = "wifi.AnalyzeSymbolInto"
	spanSelectBins    = "emulation.SubcarrierEstimator"
	spanOptimizeAlpha = "emulation.OptimizeAlpha"
	spanQuantizeSynth = "wifi.Constellation.Quantize+SynthesizeSymbolInto"
	spanDecimate      = "dsp.Decimator.Process"
)

// protoSpans names one victim's receiver and detector calls.
type protoSpans struct{ sync, frameSpan, decode, detect, tx string }

func spansOf(proto string) protoSpans {
	s := protoSpans{
		sync:      proto + ".Receiver.SynchronizeFirst",
		frameSpan: proto + ".Receiver.FrameSpan",
		decode:    proto + ".Receiver.DecodeAt",
		detect:    "lora.Detector.Analyze",
		tx:        "lora.Transmitter.TransmitPayload",
	}
	if proto == "zigbee" {
		s.detect = "emulation.Detector.Analyze"
		s.tx = "zigbee.Transmitter.TransmitPSDU"
	}
	return s
}

// span is one timed call: name, start and end in nanoseconds since the
// recorder's epoch, the span that caused it (-1 for none) and the frame
// (or forged input) it served (-1 for calls serving no single frame).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Frame  int    `json:"frame"`
}

type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

// add records a call that started at start and ends now.
func (r *recorder) add(name string, parent, frame int, start time.Time) int {
	end := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Start: start.Sub(r.epoch).Nanoseconds(), End: end, Parent: parent, Frame: frame})
	return id
}

// open starts a span whose children are recorded before it ends; close
// ends it.
func (r *recorder) open(name string, parent, frame int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	now := time.Since(r.epoch).Nanoseconds()
	r.spans = append(r.spans, span{ID: id, Name: name, Start: now, End: now, Parent: parent, Frame: frame})
	return id
}

func (r *recorder) close(id int) {
	end := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = end
}

// durations returns every span of the named call, in microseconds.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(max(len(xs), 1)) }

// writeSpans appends every recorder's spans to path as NDJSON, tagged
// with the replay they came from.
func writeSpans(path string, recs map[string]*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for replay, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(struct {
				Replay string `json:"replay"`
				span
			}{replay, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer threads one replay's recorder through the wrapped pipeline.
// Frame ids count frames in scan order; with one session at a time and
// one worker, decode and delivery see frames in the same order.
type tracer struct {
	rec                       *recorder
	root                      atomic.Int64
	scanned, decoded, emitted atomic.Int64
}

func (t *tracer) parent() int { return int(t.root.Load()) }

// wrap returns p with its receiver and detector timed.
func (t *tracer) wrap(p *phy.Pipeline) *phy.Pipeline {
	n := spansOf(p.Protocol)
	return &phy.Pipeline{
		Protocol: p.Protocol,
		Receiver: &tracedRx{Receiver: p.Receiver, t: t, n: n},
		Detector: tracedDet{det: p.Detector, t: t, n: n},
	}
}

type tracedRx struct {
	phy.Receiver
	t *tracer
	n protoSpans
}

func (r *tracedRx) Clone() phy.Receiver {
	return &tracedRx{Receiver: r.Receiver.Clone(), t: r.t, n: r.n}
}

func (r *tracedRx) SynchronizeFirst(w []complex128) (int, float64, error) {
	s := time.Now()
	start, peak, err := r.Receiver.SynchronizeFirst(w)
	r.t.rec.add(r.n.sync, r.t.parent(), int(r.t.scanned.Load()), s)
	return start, peak, err
}

func (r *tracedRx) FrameSpan(w []complex128, start int) (int, error) {
	s := time.Now()
	n, err := r.Receiver.FrameSpan(w, start)
	frame := int(r.t.scanned.Load())
	if err == nil {
		r.t.scanned.Add(1)
	}
	r.t.rec.add(r.n.frameSpan, r.t.parent(), frame, s)
	return n, err
}

func (r *tracedRx) DecodeAt(w []complex128, start int, peak float64) (phy.Reception, error) {
	s := time.Now()
	rec, err := r.Receiver.DecodeAt(w, start, peak)
	r.t.rec.add(r.n.decode, r.t.parent(), int(r.t.decoded.Add(1)-1), s)
	return rec, err
}

type tracedDet struct {
	det phy.Detector
	t   *tracer
	n   protoSpans
}

func (d tracedDet) Analyze(rec phy.Reception) (phy.Detection, error) {
	s := time.Now()
	det, err := d.det.Analyze(rec)
	d.t.rec.add(d.n.detect, d.t.parent(), int(d.t.decoded.Load()-1), s)
	return det, err
}

type tracedSource struct {
	src stream.Source
	t   *tracer
}

func (s tracedSource) ReadBlock(dst []complex128) (int, error) {
	start := time.Now()
	n, err := s.src.ReadBlock(dst)
	s.t.rec.add(spanReadBlock, s.t.parent(), -1, start)
	return n, err
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// daemonConfig is the engine configuration hideseekd runs with default
// flags, on one worker.
func daemonConfig(p *phy.Pipeline) stream.Config {
	return stream.Config{ChunkSize: 4096, Workers: 1, QueueDepth: 256, MaxPending: 64, Pipelines: []*phy.Pipeline{p}}
}

// pass is one replay of a workload's captures through an engine.
type pass struct {
	wall, cpu time.Duration
	mallocs   uint64
	bytes     uint64
	samples   int64
	stats     stream.Stats
	verdicts  [][]stream.Verdict // per session
}

// replayMode selects what a pass runs: the engine alone over decoded
// samples, or the daemon's per-session path (cf32 parse, engine, JSON
// encode of each verdict), untraced or traced.
type replayMode int

const (
	engineOnly replayMode = iota
	fullPath
	fullPathTraced
)

// replay streams each session (cf32 bytes and their decoded samples)
// through one engine with one worker, one session at a time. The scanner,
// the worker and the delivery goroutine keep their own threads, so a
// span's wall time is the call's own time and never covers another
// goroutine's work.
func replay(p *phy.Pipeline, sessions []capture, mode replayMode, t *tracer) (pass, error) {
	if mode == fullPathTraced {
		p = t.wrap(p)
	}
	e, err := stream.NewEngine(daemonConfig(p))
	if err != nil {
		return pass{}, err
	}
	defer e.Close()
	var out pass
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, wall0 := cpuTime(), time.Now()
	for _, c := range sessions {
		vs := make([]stream.Verdict, 0, len(c.Frames))
		var src stream.Source
		emit := func(v stream.Verdict) { vs = append(vs, v) }
		switch mode {
		case engineOnly:
			src = stream.NewSliceSource(c.Samples)
		case fullPath:
			src = iq.NewReaderCF32(bytes.NewReader(c.CF32))
			emit = func(v stream.Verdict) {
				buf.Reset()
				_ = enc.Encode(v) // into a bytes.Buffer: cannot fail
				vs = append(vs, v)
			}
		case fullPathTraced:
			root := t.rec.open(spanProcess, -1, -1)
			t.root.Store(int64(root))
			src = tracedSource{src: iq.NewReaderCF32(bytes.NewReader(c.CF32)), t: t}
			emit = func(v stream.Verdict) {
				s := time.Now()
				buf.Reset()
				_ = enc.Encode(v) // into a bytes.Buffer: cannot fail
				t.rec.add(spanEncode, root, int(t.emitted.Add(1)-1), s)
				vs = append(vs, v)
			}
		}
		st, err := e.Process(context.Background(), src, emit)
		if err != nil {
			return pass{}, err
		}
		if mode == fullPathTraced {
			t.rec.close(t.parent())
		}
		out.stats.Frames += st.Frames
		out.stats.SyncRejects += st.SyncRejects
		out.samples += st.Samples
		out.verdicts = append(out.verdicts, vs)
	}
	out.cpu, out.wall = cpuTime()-cpu0, time.Since(wall0)
	runtime.ReadMemStats(&m1)
	out.mallocs, out.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return out, nil
}

// repeatCapture concatenates n copies of c as one session.
func repeatCapture(c capture, n int) capture {
	var out capture
	for range n {
		out.CF32 = append(out.CF32, c.CF32...)
		out.Samples = append(out.Samples, c.Samples...)
		out.Frames = append(out.Frames, c.Frames...)
	}
	return out
}
