// Package loraphy adapts the LoRa CSS receiver and off-peak-energy
// defense (internal/lora) to the victim-PHY plugin contract
// (internal/phy). Importing it registers the "lora" protocol.
//
// phy.Adapt builds the adapter; this package supplies the LoRa spans and
// the verdict's mapping. The streaming obligations of the contract hold
// trivially here: lora.(*Receiver).SynchronizeFirst refines within one
// reference length of the first crossing, FrameSpan reads only
// HeaderSamples past the start, and DecodeAt reads exactly the frame span
// (TailSamples is zero — CSS has no cross-symbol modulation memory).
package loraphy

import (
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

// native is what phy.Adapt needs beyond the receiver and detector.
var native = &phy.Native[*lora.Reception, *lora.Detector]{
	Protocol:        Protocol,
	HeaderSamples:   lora.HeaderSamples,
	MaxFrameSamples: lora.MaxFrameSamples,
	Payload:         func(rec *lora.Reception) []byte { return rec.Payload },
	Detect: func(det *lora.Detector, rec *lora.Reception) (phy.Detection, error) {
		v, err := det.AnalyzeReception(rec)
		if err != nil {
			return phy.Detection{}, err
		}
		return phy.Detection{DistanceSquared: v.DistanceSquared, Attack: v.Attack}, nil
	},
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
	return phy.Adapt(native, rx, det), nil
}
