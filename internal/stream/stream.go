// Package stream is the online-detection subsystem: a chunked pipeline
// that runs victim-PHY frame synchronization, frame decode, and the
// emulation defense over unbounded I/Q streams. The pipeline is generic
// over the phy.Receiver/phy.Detector plugin contract (internal/phy): one
// Engine can serve several protocols (ZigBee O-QPSK, LoRa CSS, ...) from
// its worker pools, with each session bound to one protocol.
//
// Shape of the pipeline:
//
//	Source ──chunks──▶ session scanner ──frames──▶ shard queue ──▶ shard workers ──▶ ordered Verdicts
//
// The Engine is the one serving type. It runs Config.Shards shards (one
// worker pool and bounded queue each, default 1) and pins every session
// to one shard by its key (WithSessionKey); with Config.Admission
// enabled, each shard degrades or sheds new sessions under load.
//
// Stage by stage:
//   - A Source yields fixed-size sample blocks (wrap iq.ReaderCF32 for
//     cf32 pipes, SliceSource for in-memory captures such as the
//     synthetic ones BuildCapture renders).
//   - Each session owns a sliding window buffer whose overlap policy
//     makes preamble synchronization byte-identical to whole-capture
//     processing for captures whose detected frames all decode:
//     correlation lags are only trusted once the window extends far
//     enough that their value can never change, and the scanner advances
//     by exactly the offsets the protocol's batch ReceiveAll would use
//     (FrameSpan validates the decoded header, so invalid sync points
//     advance identically too; see DESIGN.md §9 for the one accepted
//     divergence after a frame whose body fails to decode, and §12 for
//     the obligations a phy plugin owes this scanner).
//   - Detected frames are copied out of the window and fanned out to the
//     bounded worker pool of the session's shard, shared by every session
//     on that shard. The queue is explicitly bounded with a drop-oldest
//     policy (dropped frames surface as Verdicts with Dropped set and
//     count in "stream.dropped_frames"); nothing in the pipeline grows
//     without bound.
//   - Workers run the full frame decode (phy.Receiver.DecodeAt) and the
//     protocol's defense (phy.Detector); each session reassembles
//     worker results into verdict order, so callers observe frames in
//     stream order regardless of worker scheduling.
//
// Backpressure: a session admits at most MaxPending frames into the
// shared pool; past that the scanner blocks, which stops Source reads,
// which (for a network source) pushes back on the sender. The shared
// queue additionally drops oldest under cross-session overload so one
// stalled session cannot wedge the pool. Verdicts are emitted by a
// dedicated per-session delivery goroutine — workers only park results
// in the reorder buffer — so a consumer that stalls inside emit blocks
// its own session (whose un-emitted verdicts count against MaxPending)
// and nothing else.
package stream

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hideseek/internal/calib"
	"hideseek/internal/obs"
	"hideseek/internal/phy"
)

// Config parameterizes an Engine (and, via Process, a one-shot pipeline).
// The zero value of every field selects a sensible default. Workers,
// QueueDepth and MaxPending apply per shard.
type Config struct {
	// ChunkSize is the samples-per-block the session reads from its
	// Source (default 4096).
	ChunkSize int
	// Workers is the decode/detect pool width (default
	// runner.DefaultWorkers()).
	Workers int
	// QueueDepth bounds the shared frame queue; when full the oldest
	// queued frame is dropped and surfaced as a Dropped verdict
	// (default 64).
	QueueDepth int
	// MaxPending bounds how many frames one session may have in flight
	// (queued or decoding) before its scanner blocks (default 32).
	MaxPending int
	// Pipelines are the victim-PHY pipelines the engine serves, one per
	// protocol (build them with phy.Build or a protocol adapter's
	// NewPipeline). The first entry is the default protocol for Process.
	// At least one is required.
	Pipelines []*phy.Pipeline
	// Tracer, when set, records a per-frame span trace
	// (scan→sync→queue→decode→detect→calib→deliver) for every scanned
	// frame, joined to its Verdict via Verdict.TraceID. nil disables
	// tracing; the pipeline then takes no extra timestamps and allocates
	// nothing.
	Tracer *obs.Tracer
	// Calibration enables the online calibration stage (internal/calib):
	// per-session-class rolling D² distributions, a warmup-fitted
	// decision boundary applied through the phy.DetectTuner capability,
	// and a drift monitor surfaced as the stream.<proto>.calib_drift
	// counter, per-class calib_threshold gauges, and errored calib spans
	// on the frame trace. nil disables the stage entirely: the pipeline
	// analyzes with the pipeline detector as configured and emits
	// byte-identical Verdicts.
	Calibration *calib.Config
	// Shards is the number of independent worker pools (default 1). Each
	// shard has Workers workers, a QueueDepth-bounded queue, and its own
	// admission tier; a session is pinned to one shard for its whole
	// life. Every shard clones its receivers from the same pipeline
	// prototypes, so the FFT sync reference spectrum and plans exist once
	// per protocol regardless of shard count.
	Shards int
	// Admission configures tiered admission control per shard (zero value
	// = disabled: every session is accepted at full fidelity).
	Admission AdmissionConfig
	// TopK is the per-shard heavy-hitter sketch capacity: how many
	// session keys each shard monitors for frame/drop/shed/latency
	// attribution (default 128). Any key whose share of a shard's
	// traffic exceeds 1/TopK is guaranteed to be reported.
	TopK int
}

// defaultTopK is the per-shard sketch capacity when Config.TopK is 0.
const defaultTopK = 128

func (c *Config) applyDefaults() error {
	if c.ChunkSize == 0 {
		c.ChunkSize = 4096
	}
	if c.ChunkSize < 1 {
		return fmt.Errorf("stream: chunk size %d < 1", c.ChunkSize)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("stream: queue depth %d < 1", c.QueueDepth)
	}
	if c.MaxPending == 0 {
		c.MaxPending = 32
	}
	if c.MaxPending < 1 {
		return fmt.Errorf("stream: max pending %d < 1", c.MaxPending)
	}
	if len(c.Pipelines) == 0 {
		return errors.New("stream: no pipelines configured")
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 1 {
		return fmt.Errorf("stream: shard count %d < 1", c.Shards)
	}
	if c.TopK == 0 {
		c.TopK = defaultTopK
	}
	if c.TopK < 1 {
		return fmt.Errorf("stream: top-K capacity %d < 1", c.TopK)
	}
	if c.Admission.Enabled {
		return c.Admission.applyDefaults(c)
	}
	return nil
}

// Verdict is one ordered record of the pipeline's output: a frame the
// scanner found, what the defense decided about it, and where the time
// went. Verdicts are emitted strictly in stream order (by Offset); every
// scanned frame yields exactly one Verdict, including frames dropped
// under backpressure (Dropped) and frames that failed to decode (Err).
type Verdict struct {
	// Seq numbers the frames of one session in scan order, from 0.
	Seq uint64 `json:"seq"`
	// Proto names the session's victim-PHY protocol ("zigbee", "lora").
	Proto string `json:"proto,omitempty"`
	// Offset is the absolute sample index of the frame start (SHR) in
	// the stream.
	Offset int64 `json:"offset"`
	// SyncPeak is the normalized preamble correlation at the sync point.
	SyncPeak float64 `json:"sync_peak"`
	// PSDU is the decoded MAC payload (nil when decode failed/dropped).
	PSDU []byte `json:"psdu,omitempty"`
	// C40Re/C40Im/C42 are the estimated cumulants; DistanceSquared is
	// D²E (or its |Ĉ40| variant) against the QPSK reference.
	C40Re           float64 `json:"c40_re"`
	C40Im           float64 `json:"c40_im"`
	C42             float64 `json:"c42"`
	DistanceSquared float64 `json:"d2e"`
	// Attack is the hypothesis-test outcome: true = emulated (H1).
	Attack bool `json:"attack"`
	// CalibThreshold and CalibSource record the decision threshold the
	// online calibration stage resolved for this frame and its
	// provenance ("default", "fitted", "operator"). Both are omitted
	// when calibration is disabled (Config.Calibration == nil) or the
	// session's detector lacks the phy.DetectTuner capability, keeping
	// verdicts byte-identical to the uncalibrated pipeline.
	CalibThreshold float64 `json:"calib_threshold,omitempty"`
	CalibSource    string  `json:"calib_source,omitempty"`
	// Dropped marks a frame discarded by the bounded queue before any
	// analysis ran.
	Dropped bool `json:"dropped,omitempty"`
	// Degraded marks a verdict from a session admitted under the engine's
	// degrade tier (raised sync threshold, tightened in-flight budget).
	// Stamped on every verdict of such a session, including dropped-frame
	// tombstones, so consumers can weigh reduced-fidelity decisions.
	Degraded bool `json:"degraded,omitempty"`
	// Err records a decode or defense failure (the frame produced no
	// decision; Attack is meaningless). ErrStage names the stage that
	// failed — StageDecode (demodulation/despreading) or StageDetect
	// (the cumulant defense) — and is empty when Err is empty.
	Err      string `json:"err,omitempty"`
	ErrStage string `json:"err_stage,omitempty"`
	// Per-stage latency in nanoseconds: time in the scanner step that
	// found the frame, time waiting in the shared queue, frame decode,
	// and defense.
	ScanNS   int64 `json:"scan_ns"`
	QueueNS  int64 `json:"queue_ns"`
	DecodeNS int64 `json:"decode_ns"`
	DetectNS int64 `json:"detect_ns"`
	// TraceID joins the verdict to its span trace when the pipeline runs
	// with a Tracer (0 / absent otherwise). The trace's Seq mirrors this
	// verdict's Seq.
	TraceID uint64 `json:"trace_id,omitempty"`

	// trace is the in-flight span trace riding along with the verdict
	// until the delivery goroutine finishes it.
	trace *obs.Trace
}

// Verdict.ErrStage values.
const (
	StageDecode = "decode"
	StageDetect = "detect"
)

// Sentinel errors recorded on the queue span of dropped frames' traces.
var (
	errDroppedOldest = errors.New("dropped: bounded queue evicted oldest frame")
	errEngineClosed  = errors.New("dropped: engine closed")
)

// Decided reports whether the verdict carries a real decision (the frame
// was decoded and analyzed).
func (v *Verdict) Decided() bool { return !v.Dropped && v.Err == "" }

// Stats summarizes one session's run.
type Stats struct {
	Samples      int64 `json:"samples"`
	Chunks       int64 `json:"chunks"`
	Frames       int64 `json:"frames"`
	SyncRejects  int64 `json:"sync_rejects"`
	Dropped      int64 `json:"dropped"`
	DecodeErrors int64 `json:"decode_errors"`
	DetectErrors int64 `json:"detect_errors"`
}

// Process runs a one-shot pipeline: a private Engine is built from cfg,
// src is streamed through it, emit observes every Verdict in order, and
// the engine is torn down before returning. For shared-pool serving
// (many sources, one worker pool) build an Engine and call
// Engine.Process per source instead.
func Process(ctx context.Context, cfg Config, src Source, emit func(Verdict), opts ...SessionOption) (Stats, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return Stats{}, err
	}
	defer e.Close()
	return e.Process(ctx, src, emit, opts...)
}

func sinceNS(t time.Time) int64 { return time.Since(t).Nanoseconds() }
