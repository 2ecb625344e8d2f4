// Package zigbeephy adapts the ZigBee O-QPSK receiver (internal/zigbee)
// and the constellation-cumulant defense (internal/emulation) to the
// victim-PHY plugin contract (internal/phy). Importing it registers the
// "zigbee" protocol.
//
// The adapter is a shim: every method forwards to one zigbee or
// emulation call (the stream package's chunk/offset parity tests run
// against it). Its one check, in NewPipeline, refuses a chip source that
// zigbee.Receiver.DecodeAt does not fill.
package zigbeephy

import (
	"fmt"

	"hideseek/internal/emulation"
	"hideseek/internal/phy"
	"hideseek/internal/zigbee"
)

// Protocol is the registry name.
const Protocol = "zigbee"

func init() {
	phy.Register(Protocol, func(o phy.Options) (*phy.Pipeline, error) {
		return NewPipeline(
			zigbee.ReceiverConfig{SyncThreshold: o.SyncThreshold},
			emulation.DefenseConfig{
				Threshold:  o.Threshold,
				RemoveMean: o.RealEnv,
				UseAbsC40:  o.RealEnv,
			},
		)
	})
}

// NewPipeline builds the zigbee pipeline from the protocol's native
// configs, for callers that need knobs phy.Options does not carry
// (despread mode, chip source, ...). The chip source must be one DecodeAt
// fills: SourceDiscriminator (the default) or SourceMatched; otherwise
// every frame would fail at detect.
func NewPipeline(rc zigbee.ReceiverConfig, dc emulation.DefenseConfig) (*phy.Pipeline, error) {
	if dc.Source == emulation.SourceRecovered || dc.Source == emulation.SourcePeak {
		return nil, fmt.Errorf("zigbeephy: chip source %d is not decoded on the stream path", dc.Source)
	}
	rx, err := zigbee.NewReceiver(rc)
	if err != nil {
		return nil, err
	}
	det, err := emulation.NewDetector(dc)
	if err != nil {
		return nil, err
	}
	return &phy.Pipeline{
		Protocol: Protocol,
		Receiver: &Receiver{Rx: rx},
		Detector: Detector{det},
	}, nil
}

// Reception wraps a zigbee.Reception as a phy.Reception.
type Reception struct {
	Rec *zigbee.Reception
}

// Payload implements phy.Reception.
func (r Reception) Payload() []byte { return r.Rec.PSDU }

// Receiver wraps a zigbee.Receiver as a phy.Receiver. It is a pointer
// type: DecodeAt reuses a cached Reception wrapper, so the adapter adds
// no allocation on top of the underlying receiver's scratch-backed
// decode path (see phy.Receiver's reception-lifetime contract).
type Receiver struct {
	Rx  *zigbee.Receiver
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
func (r *Receiver) HeaderSamples() int { return zigbee.HeaderSamples }

// MaxFrameSamples implements phy.Receiver.
func (r *Receiver) MaxFrameSamples() int { return zigbee.MaxFrameSamples }

// TailSamples is the offset-Q arm tail DecodeAt needs past FrameSpan.
func (r *Receiver) TailSamples() int { return zigbee.QOffsetSamples }

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

// Detector wraps an emulation.Detector as a phy.Detector.
type Detector struct {
	Det *emulation.Detector
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
	zr, ok := rec.(*Reception)
	if !ok {
		return phy.Detection{}, fmt.Errorf("zigbeephy: reception type %T is not a zigbee reception", rec)
	}
	v, err := d.Det.DetectReception(zr.Rec)
	if err != nil {
		return phy.Detection{}, err
	}
	return phy.Detection{
		C40:             v.Cumulants.C40,
		C42:             v.Cumulants.C42,
		DistanceSquared: v.DistanceSquared,
		Attack:          v.Attack,
	}, nil
}
