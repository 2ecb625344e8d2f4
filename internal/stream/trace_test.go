package stream

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"hideseek/internal/obs"
	"hideseek/internal/phy"
)

// TestTraceJoinsVerdicts is the span-trace contract: with a Tracer
// configured, every scanned frame's verdict carries a TraceID, the
// tracer holds a trace whose (ID, Seq, Offset) match that verdict, and
// the trace's spans cover scan, sync, queue, decode, detect, and deliver
// with plausible timings. Every stage's time comes from one clock
// reading: the spans sum to the verdict's stage fields, and the stage
// histograms grow by exactly the verdicts' counts and sums.
func TestTraceJoinsVerdicts(t *testing.T) {
	authentic, emulated := testFrames(t, []byte("trace"))
	capture, err := BuildCapture(rand.New(rand.NewSource(9)), 1e-3, 700,
		authentic, emulated, authentic)
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	tracer := obs.NewTracer(obs.TracerConfig{Ring: 8, Sink: &sink})
	cfg := testConfig(t)
	cfg.Tracer = tracer

	stageHists := []struct {
		name   string
		h      *obs.Histogram
		before obs.HistogramStats
		field  func(v Verdict) (ns int64, ran bool)
	}{
		{"scan_ns", obsScanNS, obsScanNS.Summary(), func(v Verdict) (int64, bool) { return v.ScanNS, true }},
		{"decode_ns", obsDecodeNS, obsDecodeNS.Summary(), func(v Verdict) (int64, bool) { return v.DecodeNS, !v.Dropped }},
		{"detect_ns", obsDetectNS, obsDetectNS.Summary(), func(v Verdict) (int64, bool) {
			return v.DetectNS, !v.Dropped && v.ErrStage != StageDecode
		}},
		{"verdict_ns", obsVerdictNS, obsVerdictNS.Summary(), func(v Verdict) (int64, bool) {
			return v.ScanNS + v.QueueNS + v.DecodeNS + v.DetectNS, !v.Dropped
		}},
	}

	var verdicts []Verdict
	stats, err := Process(context.Background(), cfg, NewSliceSource(capture), func(v Verdict) {
		verdicts = append(verdicts, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames != 3 {
		t.Fatalf("scanned %d frames, want 3", stats.Frames)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	traces := tracer.Recent(0)
	if len(traces) != len(verdicts) {
		t.Fatalf("%d traces for %d verdicts", len(traces), len(verdicts))
	}
	byID := map[uint64]*obs.Trace{}
	for _, tr := range traces {
		byID[tr.ID] = tr
	}
	for i, v := range verdicts {
		if v.TraceID == 0 {
			t.Fatalf("verdict %d has no trace id", i)
		}
		tr, ok := byID[v.TraceID]
		if !ok {
			t.Fatalf("verdict %d: trace %d not in ring", i, v.TraceID)
		}
		if tr.Seq != v.Seq || tr.Offset != v.Offset {
			t.Errorf("trace %d: seq/offset (%d, %d) != verdict (%d, %d)",
				tr.ID, tr.Seq, tr.Offset, v.Seq, v.Offset)
		}
		stages := map[string]obs.Span{}
		for _, s := range tr.Spans {
			stages[s.Stage] = s
		}
		for _, stage := range []string{"scan", "sync", "queue", StageDecode, StageDetect, "deliver"} {
			if _, ok := stages[stage]; !ok {
				t.Errorf("trace %d lacks %s span (have %v)", tr.ID, stage, tr.Spans)
			}
		}
		// Scan starts at the trace anchor; later stages must not precede it.
		if s := stages["scan"]; s.StartNS != 0 {
			t.Errorf("trace %d: scan span starts at %d ns, want 0", tr.ID, s.StartNS)
		}
		if d, q := stages[StageDecode], stages["queue"]; d.StartNS < q.StartNS {
			t.Errorf("trace %d: decode (%d ns) precedes queue (%d ns)", tr.ID, d.StartNS, q.StartNS)
		}
		// Span durations mirror the verdict's own stage latencies.
		if got := stages[StageDecode].DurNS; got != v.DecodeNS {
			t.Errorf("trace %d: decode span %d ns != verdict decode %d ns", tr.ID, got, v.DecodeNS)
		}
		if got := stages[StageDetect].DurNS; got != v.DetectNS {
			t.Errorf("trace %d: detect span %d ns != verdict detect %d ns", tr.ID, got, v.DetectNS)
		}
		if got := stages["scan"].DurNS + stages["sync"].DurNS; got != v.ScanNS {
			t.Errorf("trace %d: scan+sync spans %d ns != verdict scan %d ns", tr.ID, got, v.ScanNS)
		}
		if got := stages["queue"].DurNS; got != v.QueueNS {
			t.Errorf("trace %d: queue span %d ns != verdict queue %d ns", tr.ID, got, v.QueueNS)
		}
	}
	for _, sh := range stageHists {
		var n, sum int64
		for _, v := range verdicts {
			if ns, ran := sh.field(v); ran {
				n++
				sum += ns
			}
		}
		after := sh.h.Summary()
		if dn, ds := after.Count-sh.before.Count, after.Sum-sh.before.Sum; dn != n || ds != float64(sum) {
			t.Errorf("stream.%s grew by count %d sum %g, verdicts hold count %d sum %d", sh.name, dn, ds, n, sum)
		}
	}

	// The NDJSON sink carries the same traces, one valid JSON object per
	// line, in completion order.
	sc := bufio.NewScanner(&sink)
	lines := 0
	for sc.Scan() {
		var tr obs.Trace
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			t.Fatalf("sink line %d: %v (%q)", lines, err, sc.Text())
		}
		if _, ok := byID[tr.ID]; !ok {
			t.Errorf("sink trace %d not in ring", tr.ID)
		}
		lines++
	}
	if lines != len(traces) {
		t.Errorf("sink holds %d traces, ring %d", lines, len(traces))
	}
}

// TestTracingDisabledLeavesVerdictsBare: without a Tracer the pipeline
// emits TraceID 0 and allocates no traces.
func TestTracingDisabledLeavesVerdictsBare(t *testing.T) {
	authentic, _ := testFrames(t, []byte("notrace"))
	capture, err := BuildCapture(rand.New(rand.NewSource(11)), 1e-3, 600, authentic)
	if err != nil {
		t.Fatal(err)
	}
	var verdicts []Verdict
	if _, err := Process(context.Background(), testConfig(t), NewSliceSource(capture), func(v Verdict) {
		verdicts = append(verdicts, v)
	}); err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 1 {
		t.Fatalf("%d verdicts, want 1", len(verdicts))
	}
	if verdicts[0].TraceID != 0 || verdicts[0].trace != nil {
		t.Fatalf("tracing disabled but verdict carries trace %d", verdicts[0].TraceID)
	}
}

// TestDroppedFrameTraceRecordsError: frames dropped before analysis
// (here, the deterministic engine-closed path that shares the eviction
// plumbing) still finish their traces, with an errored queue span and a
// verdict join.
func TestDroppedFrameTraceRecordsError(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{Ring: 16})
	defer tracer.Close()
	e, err := NewEngine(Config{Workers: 1, Tracer: tracer, Pipelines: []*phy.Pipeline{zigbeePipeline(t)}})
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(e, e.shards[0], e.pipes[0], nil, sessionOpts{}, nil)
	e.Close() // push now refuses jobs: submit takes the dropped-verdict path
	tr := tracer.StartAt(time.Now(), s.sid, 0, 100)
	s.submit(job{sess: s, pipe: s.pipe, seq: 0, offset: 100, trace: tr})
	s.drain()

	traces := tracer.Recent(0)
	if len(traces) != 1 {
		t.Fatalf("%d traces, want 1", len(traces))
	}
	var queueErr string
	for _, sp := range traces[0].Spans {
		if sp.Stage == "queue" {
			queueErr = sp.Err
		}
	}
	if queueErr == "" {
		t.Fatalf("dropped frame's queue span carries no error: %+v", traces[0].Spans)
	}
}
