// Package zigbee implements the IEEE 802.15.4 2.4 GHz O-QPSK physical layer
// and a minimal MAC sublayer: DSSS symbol-to-chip spreading, half-sine
// offset-QPSK modulation at 4 MS/s baseband, a receiver with preamble
// synchronization, clock recovery, and both hard-threshold and soft
// max-correlation despreading, plus PPDU/MAC framing with FCS.
//
// The sample-level numerology matches the paper: 2 MHz occupied bandwidth,
// 2 Mchip/s chip rate, 62.5 ksym/s symbol rate, 16 µs (64 samples) per
// symbol at the 4 MS/s baseband clock.
package zigbee

import "fmt"

// PHY constants for the 2.4 GHz O-QPSK layer at the 4 MS/s baseband clock.
const (
	// SampleRate is the baseband sample rate in Hz.
	SampleRate = 4e6
	// ChipRate is the DSSS chip rate in chip/s.
	ChipRate = 2e6
	// ChipsPerSymbol is the DSSS spreading factor.
	ChipsPerSymbol = 32
	// SamplesPerChip at 4 MS/s and 2 Mchip/s.
	SamplesPerChip = 2
	// SamplesPerSymbol is 32 chips × 2 samples = 64 samples = 16 µs.
	SamplesPerSymbol = ChipsPerSymbol * SamplesPerChip
	// SamplesPerPulse is the length of one half-sine pulse: each I (or Q)
	// chip lasts 1 µs = 4 samples.
	SamplesPerPulse = 2 * SamplesPerChip
	// SymbolsPerByte: each octet carries two 4-bit symbols, low nibble first.
	SymbolsPerByte = 2
	// MaxPSDULength is the 802.15.4 aMaxPHYPacketSize.
	MaxPSDULength = 127
	// SFD is the start-of-frame delimiter octet.
	SFD = 0xA7
	// PreambleBytes is the number of zero octets in the preamble.
	PreambleBytes = 4
)

// DefaultHammingThreshold is the despreading correlation threshold used
// throughout the paper's simulations: a 32-chip sequence within Hamming
// distance 10 of a codeword decodes; anything farther is dropped.
const DefaultHammingThreshold = 10

// EdgeSyncThreshold is the preamble sync threshold the command-line tools
// and hideseekd run ZigBee receivers at: below ReceiverConfig's 0.5
// default, so weak preambles at the edge of the victim's range still
// sync.
const EdgeSyncThreshold = 0.3

// BytesToSymbols expands octets into 4-bit symbols, low nibble first, per
// IEEE 802.15.4 §12.2.3.
func BytesToSymbols(data []byte) []byte {
	out := make([]byte, 0, len(data)*SymbolsPerByte)
	for _, b := range data {
		out = append(out, b&0x0F, b>>4)
	}
	return out
}

// SymbolsToBytesInto packs 4-bit symbols back into octets, low nibble
// first, into dst (which must hold exactly len(symbols)/2 bytes) without
// allocating. The symbol count must be even and every symbol < 16.
func SymbolsToBytesInto(dst []byte, symbols []byte) error {
	if len(symbols)%2 != 0 {
		return fmt.Errorf("zigbee: odd symbol count %d", len(symbols))
	}
	if len(dst) != len(symbols)/2 {
		return fmt.Errorf("zigbee: byte buffer has %d entries, want %d", len(dst), len(symbols)/2)
	}
	for i, s := range symbols {
		if s > 0x0F {
			return fmt.Errorf("zigbee: symbol %#x at index %d exceeds 4 bits", s, i)
		}
		if i%2 == 0 {
			dst[i/2] = s
		} else {
			dst[i/2] |= s << 4
		}
	}
	return nil
}
