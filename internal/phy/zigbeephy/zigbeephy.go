// Package zigbeephy adapts the ZigBee O-QPSK receiver (internal/zigbee)
// and the constellation-cumulant defense (internal/emulation) to the
// victim-PHY plugin contract (internal/phy). Importing it registers the
// "zigbee" protocol.
//
// phy.Adapt builds the adapter; this package supplies the ZigBee spans,
// the PSDU as payload and the cumulant verdict's mapping (the stream
// package's chunk/offset parity tests run against it). Its one check, in
// NewPipeline, refuses a chip source that zigbee.Receiver.DecodeAt does
// not fill.
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

// native is what phy.Adapt needs beyond the receiver and detector.
// TailSamples is the offset-Q arm tail DecodeAt needs past FrameSpan.
var native = &phy.Native[*zigbee.Reception, *emulation.Detector]{
	Protocol:        Protocol,
	HeaderSamples:   zigbee.HeaderSamples,
	MaxFrameSamples: zigbee.MaxFrameSamples,
	TailSamples:     zigbee.QOffsetSamples,
	Payload:         func(rec *zigbee.Reception) []byte { return rec.PSDU },
	Detect: func(det *emulation.Detector, rec *zigbee.Reception) (phy.Detection, error) {
		v, err := det.AnalyzeReception(rec)
		if err != nil {
			return phy.Detection{}, err
		}
		return phy.Detection{
			C40:             v.Cumulants.C40,
			C42:             v.Cumulants.C42,
			DistanceSquared: v.DistanceSquared,
			Attack:          v.Attack,
		}, nil
	},
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
	return phy.Adapt(native, rx, det), nil
}
