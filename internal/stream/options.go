package stream

import "hideseek/internal/calib"

// SessionOption configures one Process session. The variadic-options form
// is the one session API: protocol selection, shard affinity and
// calibration class all travel the same way, so new per-session knobs
// never fork the Process signature again.
type SessionOption func(*sessionOpts)

// sessionOpts is the resolved option set for one session. The zero value
// means: default protocol, no shard-affinity key, full-fidelity
// (non-degraded) operating point.
type sessionOpts struct {
	proto string
	key   string // shard-affinity key ("" = unpinned)

	// Online-calibration knobs (no-ops when the engine runs without
	// Config.Calibration): the session class whose rolling D²
	// distributions this session feeds ("" = the protocol name), and the
	// operator-asserted ground-truth label for warmup traffic
	// (calib.LabelNone = unlabeled; unlabeled frames only feed the drift
	// monitor after the class has fitted a boundary).
	calibClass  string
	warmupLabel calib.Label

	// degraded is set by admission control (never by callers): the
	// session runs at the degrade tier's operating point.
	degraded bool
}

// WithProto binds the session to the named victim-PHY protocol ("" = the
// engine's default, its first configured pipeline).
func WithProto(proto string) SessionOption {
	return func(o *sessionOpts) { o.proto = proto }
}

// WithSessionKey sets the session's shard-affinity key: the Engine routes
// equal keys to the same shard (consistent assignment), so one client's
// sessions share a queue and a latency budget, and attributes the
// session's traffic to the key in the top-K sketches. Keyless sessions
// are spread round-robin.
func WithSessionKey(key string) SessionOption {
	return func(o *sessionOpts) { o.key = key }
}

// WithCalibClass assigns the session to the named calibration class: all
// sessions of one class share one rolling D² distribution, one fitted
// threshold, and one drift monitor ("" = the session's protocol name, so
// by default calibration is per-protocol). A class the manager refuses
// (see calib.ErrClassRefused) fails Process before the session starts.
// Ignored when the engine runs without Config.Calibration.
func WithCalibClass(class string) SessionOption {
	return func(o *sessionOpts) { o.calibClass = class }
}

// WithWarmupLabel marks every frame of this session with operator-asserted
// ground truth (calib.LabelAuthentic or calib.LabelEmulated) — the warmup
// protocol's way of feeding labeled traffic into the boundary fit.
// Unlabeled sessions (the default) contribute verdict-labeled samples to
// the drift monitor only once their class is calibrated, never to the
// warmup fit (self-labeling during warmup would fit the boundary to the
// fallback threshold's own decisions). Ignored without Config.Calibration.
func WithWarmupLabel(l calib.Label) SessionOption {
	return func(o *sessionOpts) { o.warmupLabel = l }
}

// resolveOpts folds a Process call's options into one sessionOpts.
func resolveOpts(opts []SessionOption) sessionOpts {
	var o sessionOpts
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}
