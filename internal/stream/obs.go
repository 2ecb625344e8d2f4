package stream

import (
	"strconv"

	"hideseek/internal/obs"
)

// Observability instruments for the streaming pipeline, one per stage
// (ingest, sync scan, decode, detect) plus the backpressure tallies the
// obs snapshot endpoint exposes. Measurement only — see package obs.
var (
	obsChunks       = obs.C("stream.chunks")
	obsSamples      = obs.C("stream.samples")
	obsFrames       = obs.C("stream.frames")
	obsSyncRejects  = obs.C("stream.sync_rejects")
	obsDropped      = obs.C("stream.dropped_frames")
	obsDecodeErrors = obs.C("stream.decode_errors")
	obsDetectErrors = obs.C("stream.detect_errors")
	obsSessions     = obs.C("stream.sessions")
	obsScanNS       = obs.H("stream.scan_ns")   // per-frame scan latency: p50/p95 via /v1/obs + /metrics
	obsDecodeNS     = obs.H("stream.decode_ns") // per-frame decode latency distribution
	obsDetectNS     = obs.H("stream.detect_ns") // per-frame defense latency distribution
	obsQueueDepth   = obs.H("stream.queue_depth")
	obsQueueWaitUS  = obs.H("stream.queue_wait_us")
	obsVerdictNS    = obs.H("stream.verdict_ns")        // end-to-end per-frame latency (scan+queue+decode+detect) — the SLO latency source
	obsShed         = obs.C("stream.shed_sessions")     // sessions rejected at admission (shed tier)
	obsDegradedSess = obs.C("stream.degraded_sessions") // sessions admitted under the degrade tier
	obsCalibDrift   = obs.C("stream.calib_drift")       // drift events raised by the calibration stage
)

// Trace stage names, in pipeline order. StageDecode and StageDetect
// (stream.go) double as Verdict.ErrStage values.
const (
	traceStageScan    = "scan"
	traceStageSync    = "sync"
	traceStageQueue   = "queue"
	traceStageCalib   = "calib" // errored (with the calib.DriftEvent) when the frame tripped the drift monitor
	traceStageDeliver = "deliver"
)

// protoObs is the protocol-labelled slice of the stream instruments:
// the same tallies as the globals above, name-prefixed per served
// protocol ("stream.zigbee.frames", "stream.lora.frames", ...) so
// /metrics distinguishes tenants on a multi-protocol engine. The global
// (unlabelled) instruments keep counting every protocol, preserving the
// historical series.
type protoObs struct {
	frames       *obs.Counter
	samples      *obs.Counter
	sessions     *obs.Counter
	syncRejects  *obs.Counter
	dropped      *obs.Counter
	decodeErrors *obs.Counter
	detectErrors *obs.Counter
	calibDrift   *obs.Counter
}

func newProtoObs(proto string) protoObs {
	pre := "stream." + proto + "."
	return protoObs{
		frames:       obs.C(pre + "frames"),
		samples:      obs.C(pre + "samples"),
		sessions:     obs.C(pre + "sessions"),
		syncRejects:  obs.C(pre + "sync_rejects"),
		dropped:      obs.C(pre + "dropped_frames"),
		decodeErrors: obs.C(pre + "decode_errors"),
		detectErrors: obs.C(pre + "detect_errors"),
		calibDrift:   obs.C(pre + "calib_drift"),
	}
}

// shardObs is the shard-labelled slice of the stream instruments every
// shard carries ("stream.shard0.sessions", ...). The scan latency
// histogram's windowed p95 is the admission controller's load signal, so
// each shard keeps its own. The top-K sketches attribute the shard's
// frames, drops, sheds, and verdict latency to session keys —
// space-saving sketches, so per-key memory is bounded by the capacity
// no matter how many tenants a shard serves.
type shardObs struct {
	sessions   *obs.Counter
	shed       *obs.Counter
	degraded   *obs.Counter
	scanNS     *obs.Histogram
	queueDepth *obs.Histogram

	topFrames  *obs.TopK // frames scanned, by session key
	topDropped *obs.TopK // frames dropped (eviction / closed engine)
	topShed    *obs.TopK // sessions rejected at admission
	topLatency *obs.TopK // summed verdict latency ns, by session key
}

// topK is the per-shard heavy-hitter sketch capacity: how many session
// keys each shard monitors. Any key whose share of a shard's traffic
// exceeds 1/topK is guaranteed to be reported.
const topK = 128

// unkeyedTenant is the attribution bucket for sessions started without
// WithSessionKey, so round-robin traffic still shows up in /v1/top.
const unkeyedTenant = "(unkeyed)"

func newShardObs(i int) shardObs {
	pre := "stream.shard" + strconv.Itoa(i) + "."
	return shardObs{
		sessions:   obs.C(pre + "sessions"),
		shed:       obs.C(pre + "shed_sessions"),
		degraded:   obs.C(pre + "degraded_sessions"),
		scanNS:     obs.H(pre + "scan_ns"),
		queueDepth: obs.H(pre + "queue_depth"),
		topFrames:  obs.NewTopK(topK),
		topDropped: obs.NewTopK(topK),
		topShed:    obs.NewTopK(topK),
		topLatency: obs.NewTopK(topK),
	}
}

// tenantKey normalizes a session key for sketch attribution.
func tenantKey(key string) string {
	if key == "" {
		return unkeyedTenant
	}
	return key
}
