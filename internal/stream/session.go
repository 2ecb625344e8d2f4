package stream

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"hideseek/internal/calib"
	"hideseek/internal/obs"
	"hideseek/internal/phy"
)

// Session is one stream's scan state: the sliding window, the frame
// sequence counter, and the reorder buffer that turns unordered worker
// completions back into stream-ordered verdicts. Sessions are created
// and driven by Engine.Process; they are not safe for concurrent use
// (each connection gets its own). A session is bound to one protocol
// pipeline for its whole life.
type Session struct {
	sh         *shard // the shard whose queue and workers serve the session
	pipe       *enginePipe
	rx         phy.Receiver // scanner-side receiver (sync + header decode)
	refLen     int          // pipe.refLen: sync reference length
	hdr        int          // pipe.hdr: samples FrameSpan needs past a frame start
	tail       int          // pipe.tail: decode tail past FrameSpan
	win        window
	waitEnd    int64  // absolute offset the window end must reach before a non-EOF scan can decide more
	held       bool   // cmt holds the next frame's final sync decision
	cmt        commit // valid while held
	emit       func(Verdict)
	seq        uint64
	sid        uint64      // engine-unique session id, stamped on traces
	tracer     *obs.Tracer // nil when tracing is off
	maxPending int         // per-session in-flight bound (engine default, or the degrade tier's)
	degraded   bool        // admitted under the degrade tier; stamped on every Verdict
	tenant     string      // normalized session key for heavy-hitter attribution

	// Online-calibration binding; all zero when the stage is disabled or
	// the pipeline detector lacks the phy.DetectTuner capability. cal is
	// the shared per-class calibrator (degraded-tier sessions of a class
	// share it too, so they keep the calibrated threshold); calDet is the
	// session's cached detector clone retuned to calThr, refreshed under
	// calMu whenever the class threshold moves.
	cal         *calib.Calibrator
	warmupLabel calib.Label
	baseDet     phy.DetectTuner
	calMu       sync.Mutex
	calDet      phy.Detector
	calThr      float64

	// Scanner-goroutine-only stats fields (Samples..SyncRejects) plus
	// worker-written ones (Dropped, DecodeErrors, DetectErrors) guarded
	// by mu.
	stats Stats

	mu       sync.Mutex
	cond     *sync.Cond
	pending  map[uint64]Verdict
	next     uint64
	inflight int           // submitted frames not yet emitted
	closed   bool          // no more frames will arrive; flusher may exit
	flushed  chan struct{} // closed when the flusher goroutine exits
}

// commit is a final sync decision the scanner keeps, instead of
// re-deriving it, while it waits for the frame's decode span.
type commit struct {
	start  int64     // absolute frame start
	peak   float64   // SyncPeak
	span   int       // FrameSpan
	began  time.Time // start of the deciding scan step (the trace anchor)
	syncAt time.Time // FrameSpan began (traced sessions only)
	ns     int64     // the deciding step's scanner time, when it ended in a wait
}

// newSession builds a session bound to one shard, one protocol pipe and
// its calibration class (cal, nil when the session runs uncalibrated),
// and starts its delivery goroutine. The goroutine exits (and flushed
// closes) after drain. A degrade-tier session syncs at the raised
// threshold and may keep only a quarter of MaxPending in flight.
func newSession(e *Engine, sh *shard, pipe *enginePipe, emit func(Verdict), so sessionOpts, cal *calib.Calibrator) *Session {
	rx, maxPending := pipe.rx, e.cfg.MaxPending
	if so.degraded {
		rx, maxPending = pipe.degradedRx(), max(1, maxPending/4)
	}
	s := &Session{
		sh:         sh,
		pipe:       pipe,
		rx:         rx.Clone(),
		refLen:     pipe.refLen,
		hdr:        pipe.hdr,
		tail:       pipe.tail,
		emit:       emit,
		sid:        e.sids.Add(1),
		tracer:     e.cfg.Tracer,
		maxPending: maxPending,
		degraded:   so.degraded,
		tenant:     tenantKey(so.key),
		pending:    make(map[uint64]Verdict),
		flushed:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if cal != nil {
		dt := pipe.det.(phy.DetectTuner)
		s.cal, s.warmupLabel = cal, so.warmupLabel
		s.baseDet, s.calDet, s.calThr = dt, pipe.det, dt.DetectThreshold()
	}
	go s.flush()
	return s
}

// calibrator resolves a session's calibration class before the session
// starts ("" = the protocol name). It is nil when the stage is off or the
// protocol's detector lacks the phy.DetectTuner capability, and an error
// when the manager refuses the class.
func (e *Engine) calibrator(pipe *enginePipe, class string) (*calib.Calibrator, error) {
	dt, ok := pipe.det.(phy.DetectTuner)
	if e.calib == nil || !ok {
		return nil, nil
	}
	if class == "" {
		class = pipe.name
	}
	if cal := e.calib.Class(class, dt.DetectThreshold()); cal != nil {
		return cal, nil
	}
	return nil, fmt.Errorf("stream: calibration class %q: %w", class, calib.ErrClassRefused)
}

// detector resolves the analyzer for one frame: the pipeline detector
// when calibration is off for this session, otherwise the cached clone
// retuned to the class's current threshold (operator override > fitted >
// protocol default — calib.Calibrator.Threshold resolves the precedence).
// Workers of one session serialize on calMu only long enough to read or
// refresh the cache; re-cloning happens once per threshold change, not
// per frame.
func (s *Session) detector() (phy.Detector, float64, string) {
	if s.cal == nil {
		return s.pipe.det, 0, ""
	}
	thr, src := s.cal.Threshold()
	s.calMu.Lock()
	defer s.calMu.Unlock()
	if thr != s.calThr {
		if det, err := s.baseDet.CloneWithDetectThreshold(thr); err == nil {
			s.calDet = det
			s.calThr = thr
		}
		// A threshold outside the detector's validity range (possible for
		// operator overrides) keeps the last good clone; the mismatch
		// retries on the next frame in case the override is corrected.
	}
	return s.calDet, s.calThr, src.String()
}

// Process admits src as one session on its shard and streams it
// through that shard's pool: the calling goroutine runs ingest +
// preamble scanning, workers run decode + the defense, and emit observes
// every Verdict in stream order. Options select the session's protocol
// (WithProto; default = the first configured pipeline) and its
// shard-affinity key (WithSessionKey: equal keys → equal shards).
// Admission control, when enabled, may degrade the session's operating
// point or reject it with a *ShedError (match with errors.Is(err,
// ErrShed)) before any sample is read.
//
// emit is called from a dedicated per-session delivery goroutine with no
// locks held — a slow consumer throttles only its own session (its
// un-emitted verdicts count against the session's MaxPending, so its
// reads eventually block) and never blocks the shared worker pool or
// other sessions. Process returns once the source is exhausted (or ctx is
// cancelled) and every in-flight frame has been delivered, so no emit
// call ever follows the return. A consumer that blocks forever inside
// emit blocks that return; network callers should bound emit with write
// deadlines (as cmd/hideseekd does) so a stalled reader errors the
// session instead.
//
// For captures whose detected frames all decode, the scan is
// byte-identical to whole-capture processing: frames are found at
// exactly the offsets the protocol's batch ReceiveAll visits, for any
// chunk size, because correlation lags are data-local and the window
// only commits to a sync decision once enough samples are buffered that
// the decision can never change (see DESIGN.md §9 for the invariants,
// including the one accepted divergence after a frame whose header
// validates but whose body fails to decode).
func (e *Engine) Process(ctx context.Context, src Source, emit func(Verdict), opts ...SessionOption) (Stats, error) {
	so := resolveOpts(opts)
	i := e.shardFor(so.key)
	sh := e.shards[i]
	if e.cfg.Admission {
		ld := e.sample(i)
		switch sh.adm.Decide(e.now(), ld) {
		case TierShed:
			obsShed.Inc()
			sh.shed.Inc()
			sh.topShed.Add(tenantKey(so.key), 1)
			return Stats{}, &ShedError{Shard: i, QueueDepth: ld.queueDepth, ScanP95NS: ld.scanP95NS}
		case TierDegrade:
			obsDegradedSess.Inc()
			sh.degraded.Inc()
			so.degraded = true
		}
	}
	if src == nil {
		return Stats{}, fmt.Errorf("stream: nil source")
	}
	pipe, err := e.pipeline(so.proto)
	if err != nil {
		return Stats{}, err
	}
	cal, err := e.calibrator(pipe, so.calibClass)
	if err != nil {
		return Stats{}, err
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return Stats{}, fmt.Errorf("stream: engine is closed")
	}
	sh.active.Add(1)
	e.mu.Unlock()
	defer sh.active.Add(-1)
	obsSessions.Inc()
	pipe.obs.sessions.Inc()
	sh.sessions.Inc()

	s := newSession(e, sh, pipe, emit, so, cal)

	buf := getCF32(e.cfg.ChunkSize)
	defer putCF32(buf)
	var runErr error
	for {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		n, err := src.ReadBlock(buf)
		if n > 0 {
			obsChunks.Inc()
			obsSamples.Add(int64(n))
			s.pipe.obs.samples.Add(int64(n))
			s.stats.Chunks++
			s.stats.Samples += int64(n)
			s.win.append(buf[:n])
			s.scan(false)
		}
		if err == io.EOF {
			s.scan(true)
			break
		}
		if err != nil {
			runErr = fmt.Errorf("stream: source: %w", err)
			break
		}
	}
	s.drain()
	s.win.release()
	s.mu.Lock()
	stats := s.stats
	s.mu.Unlock()
	return stats, runErr
}

// scan advances the window state machine as far as the buffered samples
// allow. Invariants that make it chunk-size-invariant (all retention
// sizes come from the session's phy.Receiver — SyncRefSamples,
// HeaderSamples, TailSamples — cached on the session at bind time):
//
//   - A normalized correlation lag depends only on the samples it spans,
//     so lag values never change once computable; "no crossing among the
//     computable lags" is final and those samples (minus the reference
//     overlap) can be discarded.
//   - Wait, don't rescan. A sync decision needs the crossing's full
//     refinement span (2× the reference past the refined position) and
//     the header (HeaderSamples); a frame dispatches once its decode span
//     (FrameSpan + TailSamples) is buffered. Each of these waits records
//     the absolute offset the window end must reach, and a non-EOF scan
//     returns at once until it does: the window does not move while the
//     scanner waits, the first crossing is data-local, and the refined
//     start is an argmax over a range that only grows (ties to the
//     earliest lag), so an earlier rescan could only find the same or a
//     later start and wait again.
//   - Resume, don't recompute. Every SynchronizeFirst follows a
//     ResumeSync with the window's absolute offset, so the receiver
//     screens only correlation lags no earlier search of this session
//     screened; its results are still a fresh search's.
//   - Commit once final. When refinement and header are buffered and
//     FrameSpan validates the header, (start, peak, span) is kept until
//     the frame dispatches, never re-derived. EOF makes every window
//     final and bypasses the waits.
//   - Advances mirror the protocol's ReceiveAll exactly: +FrameSpan past
//     a dispatched frame, +SyncRefSamples past an undecodable sync point.
//
// A frame's ScanNS is scanner work only: the deciding SynchronizeFirst
// and FrameSpan plus the dispatch copy, never time spent waiting for
// samples.
func (s *Session) scan(eof bool) {
	refLen := s.refLen
	for {
		if !eof && s.win.end() < s.waitEnd {
			return
		}
		stepStart := time.Now()
		w := s.win.view()
		if !s.held {
			if len(w) < refLen {
				if eof {
					s.win.discard(len(w))
				}
				return
			}
			s.rx.ResumeSync(s.win.offset())
			relStart, peak, err := s.rx.SynchronizeFirst(w)
			if err != nil {
				// No threshold crossing among the computable lags: all of
				// them are final, so only the reference overlap is kept.
				if eof {
					s.win.discard(len(w))
				} else {
					s.win.discard(len(w) - refLen + 1)
				}
				return
			}
			if need := relStart + max(2*refLen, s.hdr); !eof && s.win.size() < need {
				// Refinement span or header not fully buffered yet.
				s.waitEnd = s.win.offset() + int64(need)
				return
			}
			var syncAt time.Time
			if s.tracer != nil {
				syncAt = time.Now() // scan span ends, sync span begins
			}
			span, spanErr := s.rx.FrameSpan(w, relStart)
			if spanErr != nil {
				// Undecodable or invalid header: skip this sync point exactly
				// as the protocol's ReceiveAll does.
				s.win.discard(relStart + refLen)
				s.stats.SyncRejects++
				obsSyncRejects.Inc()
				s.pipe.obs.syncRejects.Inc()
				continue
			}
			s.cmt = commit{start: s.win.offset() + int64(relStart), peak: peak, span: span, began: stepStart, syncAt: syncAt}
			s.held = true
		}
		relStart := int(s.cmt.start - s.win.offset())
		copySpan := s.cmt.span + s.tail
		if !eof && s.win.size() < relStart+copySpan {
			// Wait for the frame's full decode span. Only the deciding
			// step gets here: the watermark holds every later non-EOF
			// scan until the span is buffered.
			s.cmt.ns = sinceNS(stepStart)
			s.waitEnd = s.cmt.start + int64(copySpan)
			return
		}
		end := relStart + copySpan
		if end > s.win.size() {
			end = s.win.size() // stream ended mid-frame; decode what exists
		}
		frame := getCF32(end - relStart)
		copy(frame, w[relStart:end])
		// One clock reading ends the scan step: the verdict's ScanNS, the
		// scan histograms and the scan+sync spans all derive from it.
		scanEnd := time.Now()
		scanNS := s.cmt.ns + scanEnd.Sub(stepStart).Nanoseconds()
		var tr *obs.Trace
		if s.tracer != nil {
			scanDur := s.cmt.syncAt.Sub(s.cmt.began)
			tr = s.tracer.StartAt(s.cmt.began, s.sid, s.seq, s.cmt.start)
			tr.Proto = s.pipe.name
			tr.AddSpanDur(traceStageScan, s.cmt.began, scanDur, nil)
			tr.AddSpanDur(traceStageSync, s.cmt.syncAt, time.Duration(scanNS)-scanDur, nil)
		}
		s.submit(job{
			sess:   s,
			pipe:   s.pipe,
			seq:    s.seq,
			offset: s.cmt.start,
			peak:   s.cmt.peak,
			frame:  frame,
			scanNS: scanNS,
			trace:  tr,
		})
		s.seq++
		s.stats.Frames++
		obsFrames.Inc()
		s.pipe.obs.frames.Inc()
		obsScanNS.Observe(float64(scanNS))
		s.sh.scanNS.Observe(float64(scanNS))
		s.sh.topFrames.Add(s.tenant, 1)
		adv := relStart + s.cmt.span
		if adv > s.win.size() {
			adv = s.win.size()
		}
		s.held = false
		s.win.discard(adv)
	}
}

// submit hands a scanned frame to the shared pool, blocking while this
// session's in-flight bound is reached (ingest backpressure). Frames the
// bounded queue evicts surface immediately as Dropped verdicts on their
// owning sessions; tombstones carry the same Proto/TraceID/Degraded
// labels as worker-path verdicts so downstream consumers never see an
// unlabelled record.
func (s *Session) submit(j job) {
	s.mu.Lock()
	for s.inflight >= s.maxPending {
		s.cond.Wait()
	}
	s.inflight++
	s.mu.Unlock()
	j.enqueued = time.Now()
	evicted, ok := s.sh.q.push(j)
	depth := float64(s.sh.q.depth())
	obsQueueDepth.Observe(depth)
	s.sh.queueDepth.Observe(depth)
	for _, ev := range evicted {
		ev.tombstone(errDroppedOldest)
	}
	if !ok {
		// Engine closed under us: keep the verdict stream complete.
		j.tombstone(errEngineClosed)
	}
}

// tombstone surfaces a job that never reached a worker as a Dropped
// verdict on its own session: the drop counters, the queue span ending
// in err, and the frame buffer back to the pool.
func (j job) tombstone(err error) {
	s := j.sess
	obsDropped.Inc()
	j.pipe.obs.dropped.Inc()
	s.sh.topDropped.Add(s.tenant, 1)
	wait := time.Since(j.enqueued)
	j.trace.AddSpanDur(traceStageQueue, j.enqueued, wait, err)
	putCF32(j.frame)
	s.deliver(Verdict{
		Seq: j.seq, Proto: j.pipe.name, Offset: j.offset, SyncPeak: j.peak,
		Dropped: true, Degraded: s.degraded, ScanNS: j.scanNS, QueueNS: wait.Nanoseconds(),
		TraceID: j.trace.TraceID(), trace: j.trace,
	})
}

// deliver accepts one worker (or eviction) result: it parks the verdict
// in the reorder buffer and wakes the session's delivery goroutine.
// deliver never calls emit and never blocks on the consumer, so pool
// workers (and other sessions' scanners, via the eviction path) cannot
// wedge behind one stalled session.
func (s *Session) deliver(v Verdict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case v.Dropped:
		s.stats.Dropped++
	case v.Err != "" && v.ErrStage == StageDetect:
		s.stats.DetectErrors++
	case v.Err != "":
		s.stats.DecodeErrors++
	}
	s.pending[v.Seq] = v
	s.cond.Broadcast()
}

// flush is the session's delivery goroutine: it emits consecutively
// ready verdicts in sequence order, releasing the session lock around
// every emit call. inflight is decremented only after emit returns, so
// drain (and hence Process) cannot return while an emit is still
// running, and a slow consumer's backlog stays bounded by MaxPending.
func (s *Session) flush() {
	defer close(s.flushed)
	s.mu.Lock()
	for {
		ready, ok := s.pending[s.next]
		if !ok {
			if s.closed && s.inflight == 0 {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
			continue
		}
		delete(s.pending, s.next)
		s.next++
		s.mu.Unlock()
		if ready.trace != nil {
			deliverStart := time.Now()
			if s.emit != nil {
				s.emit(ready)
			}
			ready.trace.AddSpan(traceStageDeliver, deliverStart, nil)
			s.tracer.Finish(ready.trace)
		} else if s.emit != nil {
			s.emit(ready)
		}
		s.mu.Lock()
		s.inflight--
		s.cond.Broadcast()
	}
}

// drain blocks until every submitted frame has been emitted, then stops
// the delivery goroutine and waits for it to exit.
func (s *Session) drain() {
	s.mu.Lock()
	for s.inflight > 0 {
		s.cond.Wait()
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.flushed
}
