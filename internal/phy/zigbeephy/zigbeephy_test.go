package zigbeephy

import (
	"testing"

	"hideseek/internal/emulation"
	"hideseek/internal/zigbee"
)

func TestNewPipelineRejectsTapsDecodeAtSkips(t *testing.T) {
	for _, src := range []emulation.ChipSource{emulation.SourceRecovered, emulation.SourcePeak} {
		if _, err := NewPipeline(zigbee.ReceiverConfig{}, emulation.DefenseConfig{Source: src}); err == nil {
			t.Errorf("accepted chip source %d, which DecodeAt does not fill", src)
		}
	}
	for _, src := range []emulation.ChipSource{0, emulation.SourceDiscriminator, emulation.SourceMatched} {
		if _, err := NewPipeline(zigbee.ReceiverConfig{}, emulation.DefenseConfig{Source: src}); err != nil {
			t.Errorf("chip source %d: %v", src, err)
		}
	}
}
