package stream

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"hideseek/internal/calib"
	"hideseek/internal/obs"
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
// served prototype with its sync threshold scaled up by degradedSyncScale
// (clamped to 1), sharing the same immutable reference spectrum and FFT
// plan.
func (ep *enginePipe) degradedRx() phy.Receiver {
	ep.degMu.Lock()
	defer ep.degMu.Unlock()
	if ep.deg == nil {
		ep.deg = ep.rx
		if deg, err := ep.rx.CloneWithSyncThreshold(min(ep.rx.SyncThreshold()*degradedSyncScale, 1)); err == nil {
			ep.deg = deg
		}
	}
	return ep.deg
}

// Engine serves sessions. It runs Config.Shards shards, each one worker
// pool with its own bounded frame queue, admission tier and
// shard-labelled instruments. Many sessions (one per connection or
// capture) feed one Engine concurrently; a session is pinned to one
// shard for its whole life, and frames from every session on a shard —
// across every served protocol — are batched through that shard's
// workers, which is how the daemon serves many clients with a fixed
// resource envelope.
//
// Sessions with equal shard-affinity keys (WithSessionKey) land on the
// same shard — consistent assignment by FNV-1a hash — so one client's
// sessions share a queue and a latency budget; keyless sessions spread
// round-robin. With Config.Admission on, an overloaded shard
// degrades new sessions (raised sync threshold, tightened in-flight
// budget) and past that sheds them at admission with a typed
// *ShedError, keeping accepted sessions' latency bounded instead of
// letting every session slowly starve.
type Engine struct {
	cfg    Config
	pipes  []*enginePipe
	byName map[string]*enginePipe
	shards []*shard
	sids   atomic.Uint64  // session-id allocator (stamped on traces)
	rr     atomic.Uint64  // round-robin cursor for keyless sessions
	calib  *calib.Manager // online-calibration classes shared by every shard and tier; nil when the stage is disabled

	// sample reads a shard's load for an admission decision; replaced by
	// tests to drive the tier machine with synthetic load.
	sample func(shard int) admissionSample
	// now is the admission clock; replaced by tests.
	now func() time.Time

	mu     sync.Mutex
	closed bool
}

// shard is one worker pool with its bounded frame queue, its admission
// tier and its shard-labelled instruments.
type shard struct {
	shardObs
	q      *jobQueue
	adm    admission
	wg     sync.WaitGroup
	active atomic.Int64 // sessions currently running
}

func newShard(i int, cfg Config) *shard {
	return &shard{shardObs: newShardObs(i), q: newJobQueue(cfg.QueueDepth), adm: admission{admissionLimits: limitsFor(cfg.QueueDepth)}}
}

// NewEngine validates cfg, builds the served pipelines and the shards,
// and starts every shard's worker pool. Close must be called to release
// the workers. At least one pipeline is required.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runner.DefaultWorkers()
	}
	e := &Engine{cfg: cfg, byName: make(map[string]*enginePipe, len(cfg.Pipelines)), now: time.Now}
	for i, p := range cfg.Pipelines {
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
	if cfg.Calibration != nil {
		// One manager for every shard: sessions of a class calibrate
		// together no matter which shard (or admission tier) they land on,
		// so a degraded-tier session keeps the class's fitted threshold.
		mgr, err := calib.NewManager(*cfg.Calibration, e.Protocols()...)
		if err != nil {
			return nil, err
		}
		e.calib = mgr
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := newShard(i, cfg)
		sh.wg.Add(cfg.Workers)
		for w := 0; w < cfg.Workers; w++ {
			go e.worker(sh)
		}
		e.shards = append(e.shards, sh)
	}
	e.sample = func(i int) admissionSample {
		sh := e.shards[i]
		return admissionSample{queueDepth: sh.q.depth(), scanP95NS: sh.scanNS.Windowed().Last60s.P95}
	}
	return e, nil
}

// shardFor maps a session key to its shard: FNV-1a over the key for
// consistent assignment, round-robin for keyless sessions.
func (e *Engine) shardFor(key string) int {
	if len(e.shards) == 1 {
		return 0
	}
	if key == "" {
		return int(e.rr.Add(1) % uint64(len(e.shards)))
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(len(e.shards)))
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Workers returns the total pool width across shards.
func (e *Engine) Workers() int { return len(e.shards) * e.cfg.Workers }

// QueueDepth returns the engine-wide count of frames waiting for workers.
func (e *Engine) QueueDepth() int {
	n := 0
	for _, sh := range e.shards {
		n += sh.q.depth()
	}
	return n
}

// Protocols returns the served protocol names in configuration order
// (the first is the default).
func (e *Engine) Protocols() []string {
	names := make([]string, len(e.pipes))
	for i, p := range e.pipes {
		names[i] = p.name
	}
	return names
}

// AdmissionEnabled reports whether tiered admission control is on.
func (e *Engine) AdmissionEnabled() bool { return e.cfg.Admission }

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

// ActiveSessions returns the engine-wide count of running sessions.
func (e *Engine) ActiveSessions() int {
	n := 0
	for _, sh := range e.shards {
		n += int(sh.active.Load())
	}
	return n
}

// ShardStatus is one row of Engine.ShardTable: a shard's identity, load,
// and admission tier, as served by the daemon's /healthz.
type ShardStatus struct {
	Shard          int     `json:"shard"`
	Workers        int     `json:"workers"`
	ActiveSessions int     `json:"active_sessions"`
	QueueDepth     int     `json:"queue_depth"`
	Tier           string  `json:"tier"`
	ScanP95NS      float64 `json:"scan_p95_ns"`
}

// ShardTable returns a per-shard status snapshot (the daemon serves it
// on /healthz). Tier is the shard's current admission tier; "accept"
// when admission control is disabled.
func (e *Engine) ShardTable() []ShardStatus {
	table := make([]ShardStatus, len(e.shards))
	for i, sh := range e.shards {
		table[i] = ShardStatus{
			Shard:          i,
			Workers:        e.cfg.Workers,
			ActiveSessions: int(sh.active.Load()),
			QueueDepth:     sh.q.depth(),
			Tier:           sh.adm.current().String(),
			ScanP95NS:      sh.scanNS.Windowed().Last60s.P95,
		}
	}
	return table
}

// TopKTable is the engine-wide heavy-hitter report: the top session keys
// by frames scanned, frames dropped, sessions shed, and summed verdict
// latency. Counts may overestimate by at most each entry's Err (the
// space-saving bound); merged across shards, the bounds add.
type TopKTable struct {
	Frames    []obs.TopKEntry `json:"frames"`
	Dropped   []obs.TopKEntry `json:"dropped,omitempty"`
	Shed      []obs.TopKEntry `json:"shed,omitempty"`
	LatencyNS []obs.TopKEntry `json:"latency_ns"`
}

// Top merges the per-shard sketches and returns up to k heavy hitters
// per dimension (k <= 0: up to the sketch capacity).
func (e *Engine) Top(k int) TopKTable {
	pick := func(sel func(*shard) *obs.TopK) []obs.TopKEntry {
		m := obs.NewTopK(topK)
		for _, sh := range e.shards {
			m.Merge(sel(sh).Top(0))
		}
		return m.Top(k)
	}
	return TopKTable{
		Frames:    pick(func(sh *shard) *obs.TopK { return sh.topFrames }),
		Dropped:   pick(func(sh *shard) *obs.TopK { return sh.topDropped }),
		Shed:      pick(func(sh *shard) *obs.TopK { return sh.topShed }),
		LatencyNS: pick(func(sh *shard) *obs.TopK { return sh.topLatency }),
	}
}

// Close drains every shard's queue, stops the workers, and waits for them
// to exit. It must not race with in-flight Process calls: finish (or
// cancel and drain) sessions first. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	for _, sh := range e.shards {
		sh.q.close()
	}
	for _, sh := range e.shards {
		sh.wg.Wait()
	}
}

// worker is the decode/detect stage: one receiver clone per served
// protocol (receivers reuse internal scratch and are not
// concurrency-safe; Clone shares the immutable references and plans),
// shared stateless detectors.
func (e *Engine) worker(sh *shard) {
	defer sh.wg.Done()
	rxs := make([]phy.Receiver, len(e.pipes))
	for i, p := range e.pipes {
		rxs[i] = p.rx.Clone()
	}
	for {
		j, ok := sh.q.pop()
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
		sh.topLatency.Add(j.sess.tenant, float64(total))
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
