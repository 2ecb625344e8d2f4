// Package phy defines the victim-PHY plugin contract: the interface a
// protocol implementation (ZigBee O-QPSK, LoRa CSS, ...) exposes so the
// streaming engine (internal/stream), the daemon (cmd/hideseekd), and the
// CLI tools can scan, decode, and run an emulation defense over its
// frames without knowing the protocol.
//
// The contract mirrors what internal/zigbee grew for the streaming
// pipeline — preamble synchronization, header-only frame sizing, and
// post-sync decode — so a protocol that satisfies it inherits the
// engine's chunk-size-invariance guarantees (see DESIGN.md §12):
//
//   - SynchronizeFirst must report the EARLIEST threshold crossing of a
//     normalized, data-local correlation, refined to the local maximum
//     within one reference length, and report that lag's value. Data-
//     local means a lag's value, decision and reported peak alike, reads
//     only the lag's own samples, never where the searched slice starts.
//     That is what lets the engine trust a sync decision once the
//     refinement span is buffered, and what makes a stream's sync peaks
//     equal batch ones. dsp.Correlator.FirstCrossing provides exactly
//     this; both in-tree PHYs wrap it.
//   - The refined start must never move earlier as samples are appended
//     to the waveform: refinement is an argmax over a lag range that only
//     grows, and ties go to the earliest lag. That is what lets the
//     scanner wait for the samples a decision needs instead of rescanning
//     on every chunk, and keep a decision once it is final.
//   - ResumeSync(at) before SynchronizeFirst(w) declares that w[0] is
//     sample at of one stream whose samples never change once seen; the
//     scanner makes this call before every search. The receiver may then
//     reuse correlation work from its earlier resumed searches on that
//     stream (both in-tree PHYs screen each correlation lag once per
//     stream, see dsp.Correlator.Resume). A search with no ResumeSync
//     before it is fresh and must drop such state, and a new Clone holds
//     none. Whatever the receiver reuses, a search's results must not
//     depend on its call history: a resumed search returns what a fresh
//     search on the same window returns.
//   - FrameSpan must learn the frame's full span from the first
//     HeaderSamples past the frame start and must validate the decoded
//     header (a sync point with invalid header content errors here), so
//     the streaming scanner advances exactly as the protocol's batch
//     ReceiveAll would.
//   - DecodeAt needs FrameSpan()+TailSamples() samples from the frame
//     start (TailSamples covers modulation tails past the last decoded
//     payload sample, e.g. ZigBee's offset-Q arm).
//
// Receivers hold scratch state and are NOT safe for concurrent use; the
// engine Clones the registered prototype per goroutine. Clone must be
// cheap (share immutable references and precomputed plans) and safe to
// call concurrently with other Clones of the same prototype. Detectors
// must be stateless and safe for concurrent use; one instance is shared
// by every worker.
//
// Adapt builds both halves from a protocol's own receiver and detector
// (internal/phy/zigbeephy and internal/phy/loraphy use it), so an adapter
// package supplies only the protocol's spans, payload field and verdict
// mapping (Native).
package phy

// Reception is a decoded frame as the engine sees it: the payload plus
// whatever protocol-specific taps the paired Detector consumes. Concrete
// types are protocol-private; the engine only moves them from Receiver to
// Detector.
//
// Lifetime: a Reception (and every slice it exposes, including Payload)
// is a view into its Receiver's reusable scratch, valid only until that
// receiver's next DecodeAt/FrameSpan call. Consumers that keep payload
// bytes past the decode — the engine's Verdict does — must copy them out.
// This is what lets the steady-state decode+detect path run without
// allocating.
type Reception interface {
	// Payload returns the decoded MAC-layer payload.
	Payload() []byte
}

// Receiver is the scan/decode side of a victim PHY. See the package
// comment for the streaming obligations behind each method.
type Receiver interface {
	// Clone returns an independent receiver sharing immutable state
	// (references, FFT plans) but owning fresh scratch, safe for use from
	// another goroutine.
	Clone() Receiver
	// SyncRefSamples is the synchronization reference length: the minimum
	// window SynchronizeFirst can search and the advance past a sync
	// point whose header fails to validate.
	SyncRefSamples() int
	// HeaderSamples is how many samples past a frame start FrameSpan
	// needs to size and validate the frame.
	HeaderSamples() int
	// MaxFrameSamples bounds FrameSpan()+TailSamples() for any decodable
	// frame, so stream windows never need to grow past it.
	MaxFrameSamples() int
	// TailSamples is the modulation tail past FrameSpan that DecodeAt
	// needs (0 for most protocols; ZigBee's offset-Q arm is 2).
	TailSamples() int
	// ResumeSync declares that the next SynchronizeFirst's waveform
	// starts at absolute sample at of the stream the earlier resumed
	// searches saw (see the package comment).
	ResumeSync(at int64)
	// SynchronizeFirst finds the earliest frame start in the waveform and
	// returns its index and normalized correlation peak, or an error when
	// no lag crosses the sync threshold.
	SynchronizeFirst(waveform []complex128) (start int, peak float64, err error)
	// FrameSpan decodes and validates the header of a frame starting at
	// start and returns the frame's sample span (start through the last
	// payload-bearing sample, excluding TailSamples).
	FrameSpan(waveform []complex128, start int) (int, error)
	// DecodeAt runs the full post-synchronization decode of a frame
	// starting at start; syncPeak is recorded in the Reception. The
	// Reception is scratch-backed (see the Reception lifetime note).
	DecodeAt(waveform []complex128, start int, syncPeak float64) (Reception, error)
	// SyncThreshold reports the effective preamble sync threshold.
	SyncThreshold() float64
	// CloneWithSyncThreshold returns a Clone whose sync threshold is t
	// (t must be in the receiver's valid range), sharing the immutable
	// reference spectrum and correlation plan exactly like Clone. The
	// streaming engine's degrade admission tier uses it to raise the
	// sync bar on overloaded shards.
	CloneWithSyncThreshold(t float64) (Receiver, error)
}

// Detection is one defense decision in protocol-neutral form. C40/C42
// carry the constellation cumulants for detectors that estimate them
// (ZigBee's D²E) and are zero for detectors with a different feature
// (LoRa's spectral-concentration distance); DistanceSquared is always the
// thresholded statistic.
type Detection struct {
	C40             complex128
	C42             float64
	DistanceSquared float64
	Attack          bool
}

// Detector is the defense side of a victim PHY: it decides whether a
// decoded frame is an authentic transmission or a WiFi waveform-emulation
// attack. Implementations must be stateless and safe for concurrent use.
type Detector interface {
	Analyze(rec Reception) (Detection, error)
}

// DetectTuner is an optional Detector capability, the detect-side mirror
// of Receiver.CloneWithSyncThreshold: a detector that can report its
// decision threshold (Q in the paper's hypothesis test) and produce a
// cheap re-thresholded clone sharing its immutable reference state. The online calibration stage
// (internal/calib, threaded through internal/stream) uses it to apply a
// fitted or operator-overridden threshold per session without touching
// the shared pipeline detector; detectors without the capability keep
// their configured threshold and only feed the drift monitor.
type DetectTuner interface {
	Detector
	// DetectThreshold reports the effective decision threshold.
	DetectThreshold() float64
	// CloneWithDetectThreshold returns a Detector identical to this one
	// except for its decision threshold (t must be in the detector's
	// valid range).
	CloneWithDetectThreshold(t float64) (Detector, error)
}

// Pipeline bundles one protocol's receiver prototype and shared detector
// under its registry name — the unit the streaming engine serves.
type Pipeline struct {
	// Protocol is the registry name ("zigbee", "lora").
	Protocol string
	// Receiver is the prototype the engine Clones per goroutine.
	Receiver Receiver
	// Detector is shared by every worker.
	Detector Detector
}
