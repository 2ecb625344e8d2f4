package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hideseek/internal/calib"
	"hideseek/internal/phy"
	"hideseek/internal/runner"
)

// enginePipe is one served protocol: the receiver prototype workers and
// sessions Clone, the shared detector, the retention sizes the scanner
// needs (cached as plain ints so the hot scan loop makes no interface
// calls), and the protocol-labelled instruments.
type enginePipe struct {
	idx  int // position in Engine.pipes; workers index their clones by it
	name string
	rx   phy.Receiver // prototype; workers and sessions Clone it
	det  phy.Detector

	refLen int // Receiver.SyncRefSamples()
	hdr    int // Receiver.HeaderSamples()
	tail   int // Receiver.TailSamples()
	obs    protoObs

	degMu sync.Mutex
	deg   phy.Receiver // lazily built degraded-tier prototype (raised sync threshold)
}

// degradedRx returns the protocol's degraded-tier receiver prototype: the
// served prototype with its sync threshold scaled up by syncScale
// (clamped to 1), sharing the same immutable reference spectrum and FFT
// plan. Receivers without the phy.SyncTuner capability degrade by
// in-flight budget only and keep their normal prototype.
func (ep *enginePipe) degradedRx(syncScale float64) phy.Receiver {
	ep.degMu.Lock()
	defer ep.degMu.Unlock()
	if ep.deg != nil {
		return ep.deg
	}
	ep.deg = ep.rx
	if st, ok := ep.rx.(phy.SyncTuner); ok && syncScale > 1 {
		t := st.SyncThreshold() * syncScale
		if t > 1 {
			t = 1
		}
		if deg, err := st.CloneWithSyncThreshold(t); err == nil {
			ep.deg = deg
		}
	}
	return ep.deg
}

// Engine owns the shared decode/detect worker pool and the bounded frame
// queue. Many sessions (one per connection or capture) feed one Engine
// concurrently; frames from every session — across every served protocol
// — are batched through the same workers, which is how the daemon serves
// many clients with a fixed resource envelope.
type Engine struct {
	cfg    Config
	pipes  []*enginePipe
	byName map[string]*enginePipe
	q      *jobQueue
	wg     sync.WaitGroup
	sids   atomic.Uint64  // session-id allocator (stamped on traces)
	shard  *shardObs      // shard-labelled instruments when fleet-owned (nil standalone)
	calib  *calib.Manager // online-calibration classes; nil when the stage is disabled

	mu     sync.Mutex
	closed bool
	active int // sessions currently running
}

// NewEngine validates cfg, builds the served pipelines, and starts the
// worker pool. Close must be called to release the workers. At least
// one pipeline is required.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runner.DefaultWorkers()
	}
	// Fleet-owned engines share the fleet's manager (one calibrated
	// threshold per class across every shard and tier); standalone
	// engines build their own.
	mgr := cfg.calibMgr
	if mgr == nil && cfg.Calibration != nil {
		var err error
		mgr, err = calib.NewManager(*cfg.Calibration)
		if err != nil {
			return nil, err
		}
	}
	pipelines := cfg.Pipelines
	e := &Engine{cfg: cfg, shard: cfg.shard, calib: mgr, byName: make(map[string]*enginePipe, len(pipelines)), q: newJobQueue(cfg.QueueDepth)}
	for i, p := range pipelines {
		if p == nil || p.Receiver == nil || p.Detector == nil {
			return nil, fmt.Errorf("stream: pipeline %d is incomplete", i)
		}
		if p.Protocol == "" {
			return nil, fmt.Errorf("stream: pipeline %d has no protocol name", i)
		}
		if _, dup := e.byName[p.Protocol]; dup {
			return nil, fmt.Errorf("stream: protocol %q configured twice", p.Protocol)
		}
		ep := &enginePipe{
			idx:    i,
			name:   p.Protocol,
			rx:     p.Receiver,
			det:    p.Detector,
			refLen: p.Receiver.SyncRefSamples(),
			hdr:    p.Receiver.HeaderSamples(),
			tail:   p.Receiver.TailSamples(),
			obs:    newProtoObs(p.Protocol),
		}
		if ep.refLen < 1 || ep.hdr < ep.refLen || p.Receiver.MaxFrameSamples() < ep.hdr || ep.tail < 0 {
			return nil, fmt.Errorf("stream: protocol %q reports inconsistent sizes (ref %d, header %d, max %d, tail %d)",
				p.Protocol, ep.refLen, ep.hdr, p.Receiver.MaxFrameSamples(), ep.tail)
		}
		e.pipes = append(e.pipes, ep)
		e.byName[p.Protocol] = ep
	}
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e, nil
}

// Workers returns the pool width.
func (e *Engine) Workers() int { return e.cfg.Workers }

// QueueDepth returns the current number of frames waiting for a worker.
func (e *Engine) QueueDepth() int { return e.q.depth() }

// Protocols returns the served protocol names in configuration order
// (the first is the default).
func (e *Engine) Protocols() []string {
	names := make([]string, len(e.pipes))
	for i, p := range e.pipes {
		names[i] = p.name
	}
	return names
}

// DefaultProtocol returns the protocol Process binds sessions to.
func (e *Engine) DefaultProtocol() string { return e.pipes[0].name }

// Calibration returns the engine's online-calibration manager — the admin
// surface for threshold overrides, warmup re-arm, and drift status. nil
// when the stage is disabled (Config.Calibration == nil).
func (e *Engine) Calibration() *calib.Manager { return e.calib }

// pipeline resolves a protocol name ("" = default) to its served pipe.
func (e *Engine) pipeline(proto string) (*enginePipe, error) {
	if proto == "" {
		return e.pipes[0], nil
	}
	p, ok := e.byName[proto]
	if !ok {
		return nil, fmt.Errorf("stream: protocol %q not served (have %v)", proto, e.Protocols())
	}
	return p, nil
}

// ActiveSessions returns how many sessions are currently running.
func (e *Engine) ActiveSessions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.active
}

// Close drains the queue, stops the workers, and waits for them to exit.
// It must not race with in-flight Process calls: finish (or cancel and
// drain) sessions first. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.q.close()
	e.wg.Wait()
}

// worker is the decode/detect stage: one receiver clone per served
// protocol (receivers reuse internal scratch and are not
// concurrency-safe; Clone shares the immutable references and plans),
// shared stateless detectors.
func (e *Engine) worker() {
	defer e.wg.Done()
	rxs := make([]phy.Receiver, len(e.pipes))
	for i, p := range e.pipes {
		rxs[i] = p.rx.Clone()
	}
	for {
		j, ok := e.q.pop()
		if !ok {
			return
		}
		wait := time.Since(j.enqueued)
		obsQueueWaitUS.Observe(float64(wait.Microseconds()))
		j.trace.AddSpanDur(traceStageQueue, j.enqueued, wait, nil)
		v := e.processJob(rxs[j.pipe.idx], j, wait)
		// End-to-end frame latency, the SLO engine's primary objective:
		// everything from sync scan to defense verdict, queue wait
		// included.
		total := v.ScanNS + v.QueueNS + v.DecodeNS + v.DetectNS
		obsVerdictNS.Observe(float64(total))
		if e.shard != nil {
			e.shard.topLatency.Add(j.sess.tenant, float64(total))
		}
		// The frame copy is dead once the verdict is built (payloads and
		// features never alias it); recycle it through the arena.
		putCF32(j.frame)
		j.sess.deliver(v)
	}
}

// processJob runs the full frame decode and the protocol's defense on one
// scanned frame.
func (e *Engine) processJob(rx phy.Receiver, j job, wait time.Duration) Verdict {
	v := Verdict{
		Seq:      j.seq,
		Proto:    j.pipe.name,
		Offset:   j.offset,
		SyncPeak: j.peak,
		Degraded: j.sess.degraded,
		ScanNS:   j.scanNS,
		QueueNS:  wait.Nanoseconds(),
		TraceID:  j.trace.TraceID(),
		trace:    j.trace,
	}
	decodeStart := time.Now()
	rec, err := rx.DecodeAt(j.frame, 0, j.peak)
	v.DecodeNS = sinceNS(decodeStart)
	obsDecodeNS.Observe(float64(v.DecodeNS))
	j.trace.AddSpanDur(StageDecode, decodeStart, time.Duration(v.DecodeNS), err)
	if err != nil {
		v.Err = err.Error()
		v.ErrStage = StageDecode
		obsDecodeErrors.Inc()
		j.pipe.obs.decodeErrors.Inc()
		return v
	}
	// The reception is a view into the receiver's scratch (see
	// phy.Receiver); the verdict outlives the next decode, so the payload
	// must be copied out.
	v.PSDU = append([]byte(nil), rec.Payload()...)
	analyzer, calThr, calSrc := j.sess.detector()
	detectStart := time.Now()
	det, err := analyzer.Analyze(rec)
	v.DetectNS = sinceNS(detectStart)
	obsDetectNS.Observe(float64(v.DetectNS))
	j.trace.AddSpanDur(StageDetect, detectStart, time.Duration(v.DetectNS), err)
	if err != nil {
		v.Err = err.Error()
		v.ErrStage = StageDetect
		obsDetectErrors.Inc()
		j.pipe.obs.detectErrors.Inc()
		return v
	}
	v.C40Re = real(det.C40)
	v.C40Im = imag(det.C40)
	v.C42 = det.C42
	v.DistanceSquared = det.DistanceSquared
	v.Attack = det.Attack
	if j.sess.cal != nil {
		v.CalibThreshold = calThr
		v.CalibSource = calSrc
		e.observeCalib(j, det)
	}
	return v
}

// observeCalib is the post-detect calibration stage: it feeds the frame's
// D² into the session's class distributions and surfaces any drift event
// on the stream.calib_drift counters (global + per-protocol) and as an
// errored calib span on the frame trace.
func (e *Engine) observeCalib(j job, det phy.Detection) {
	s := j.sess
	label := s.warmupLabel
	if label == calib.LabelNone {
		// Unlabeled traffic feeds the drift monitor only once the class
		// is calibrated: self-labeling warmup samples with the fallback
		// threshold's own verdicts would fit the boundary to those
		// decisions instead of to ground truth.
		if !s.cal.Calibrated() {
			return
		}
		label = calib.LabelAuthentic
		if det.Attack {
			label = calib.LabelEmulated
		}
	}
	calStart := time.Now()
	ev := s.cal.Observe(det.DistanceSquared, label)
	var spanErr error
	if ev != nil {
		spanErr = ev
		obsCalibDrift.Inc()
		j.pipe.obs.calibDrift.Inc()
	}
	j.trace.AddSpanDur(traceStageCalib, calStart, time.Since(calStart), spanErr)
}
