// Package loraphy adapts the LoRa CSS receiver and off-peak-energy
// defense (internal/lora) to the victim-PHY plugin contract
// (internal/phy). Importing it registers the "lora" protocol.
//
// The streaming obligations of the contract hold trivially here:
// lora.(*Receiver).SynchronizeFirst refines within one reference length
// of the first crossing, FrameSpan reads only HeaderSamples past the
// start, and DecodeAt reads exactly the frame span (TailSamples is zero —
// CSS has no cross-symbol modulation memory).
package loraphy

import (
	"fmt"

	"hideseek/internal/lora"
	"hideseek/internal/phy"
)

// Protocol is the registry name.
const Protocol = "lora"

func init() {
	phy.Register(Protocol, func(o phy.Options) (*phy.Pipeline, error) {
		return NewPipeline(
			lora.ReceiverConfig{SyncThreshold: o.SyncThreshold},
			lora.DetectorConfig{Threshold: o.Threshold, WidePeak: o.RealEnv},
		)
	})
}

// NewPipeline builds the lora pipeline from the protocol's native
// configs.
func NewPipeline(rc lora.ReceiverConfig, dc lora.DetectorConfig) (*phy.Pipeline, error) {
	rx, err := lora.NewReceiver(rc)
	if err != nil {
		return nil, err
	}
	det, err := lora.NewDetector(dc)
	if err != nil {
		return nil, err
	}
	return &phy.Pipeline{
		Protocol: Protocol,
		Receiver: &Receiver{Rx: rx},
		Detector: Detector{det},
	}, nil
}

// Reception wraps a lora.Reception as a phy.Reception.
type Reception struct {
	Rec *lora.Reception
}

// Payload implements phy.Reception.
func (r Reception) Payload() []byte { return r.Rec.Payload }

// Receiver wraps a lora.Receiver as a phy.Receiver. It is a pointer
// type: DecodeAt reuses a cached Reception wrapper, so the adapter adds
// no allocation on top of the underlying receiver's scratch-backed
// decode path (see phy.Receiver's reception-lifetime contract).
type Receiver struct {
	Rx  *lora.Receiver
	rec Reception // cached wrapper returned by DecodeAt
}

// Clone implements phy.Receiver.
func (r *Receiver) Clone() phy.Receiver { return &Receiver{Rx: r.Rx.Clone()} }

// SyncThreshold implements phy.SyncTuner.
func (r *Receiver) SyncThreshold() float64 { return r.Rx.SyncThreshold() }

// CloneWithSyncThreshold implements phy.SyncTuner.
func (r *Receiver) CloneWithSyncThreshold(t float64) (phy.Receiver, error) {
	rx, err := r.Rx.CloneWithSyncThreshold(t)
	if err != nil {
		return nil, err
	}
	return &Receiver{Rx: rx}, nil
}

// SyncRefSamples implements phy.Receiver.
func (r *Receiver) SyncRefSamples() int { return r.Rx.SyncRefSamples() }

// HeaderSamples implements phy.Receiver.
func (r *Receiver) HeaderSamples() int { return lora.HeaderSamples }

// MaxFrameSamples implements phy.Receiver.
func (r *Receiver) MaxFrameSamples() int { return lora.MaxFrameSamples }

// TailSamples implements phy.Receiver. CSS demodulation is symbol-local,
// so no samples are needed past the frame span.
func (r *Receiver) TailSamples() int { return 0 }

// ResumeSync implements phy.Receiver.
func (r *Receiver) ResumeSync(at int64) { r.Rx.ResumeSync(at) }

// SynchronizeFirst implements phy.Receiver.
func (r *Receiver) SynchronizeFirst(w []complex128) (int, float64, error) {
	return r.Rx.SynchronizeFirst(w)
}

// FrameSpan implements phy.Receiver.
func (r *Receiver) FrameSpan(w []complex128, start int) (int, error) {
	return r.Rx.FrameSpan(w, start)
}

// DecodeAt implements phy.Receiver. The returned Reception shares the
// adapter's cached wrapper and the underlying receiver's scratch: it is
// valid until this adapter's next DecodeAt/FrameSpan call.
func (r *Receiver) DecodeAt(w []complex128, start int, syncPeak float64) (phy.Reception, error) {
	rec, err := r.Rx.DecodeAt(w, start, syncPeak)
	if err != nil {
		return nil, err
	}
	r.rec = Reception{rec}
	return &r.rec, nil
}

// Detector wraps a lora.Detector as a phy.Detector.
type Detector struct {
	Det *lora.Detector
}

// DetectThreshold implements phy.DetectTuner.
func (d Detector) DetectThreshold() float64 { return d.Det.Threshold() }

// CloneWithDetectThreshold implements phy.DetectTuner.
func (d Detector) CloneWithDetectThreshold(t float64) (phy.Detector, error) {
	det, err := d.Det.CloneWithThreshold(t)
	if err != nil {
		return nil, err
	}
	return Detector{det}, nil
}

// Analyze implements phy.Detector.
func (d Detector) Analyze(rec phy.Reception) (phy.Detection, error) {
	lr, ok := rec.(*Reception)
	if !ok {
		return phy.Detection{}, fmt.Errorf("loraphy: reception type %T is not a lora reception", rec)
	}
	v, err := d.Det.AnalyzeReception(lr.Rec)
	if err != nil {
		return phy.Detection{}, err
	}
	return phy.Detection{
		DistanceSquared: v.DistanceSquared,
		Attack:          v.Attack,
	}, nil
}
