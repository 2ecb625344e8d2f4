package zigbee

import "fmt"

// Sample-span constants for incremental (streaming) frame scanning. A
// stream consumer that buffers HeaderSamples past a sync point can learn
// the frame's true span from FrameSpan; MaxFrameSamples bounds the span of
// any decodable frame, so a window that long never needs to grow further.
const (
	// HeaderSamples is the span of SHR+PHR plus the Q-arm tail — the
	// samples FrameSpan needs past the frame start.
	HeaderSamples = (PreambleBytes+2)*SymbolsPerByte*SamplesPerSymbol + QOffsetSamples
	// MaxFrameSamples is the decode span of a maximum-length (127-byte
	// PSDU) frame including the Q-arm tail.
	MaxFrameSamples = (PreambleBytes+2+MaxPSDULength)*SymbolsPerByte*SamplesPerSymbol + QOffsetSamples
)

// SyncRefSamples is the length of the modulated-SHR synchronization
// reference: the minimum window SynchronizeFirst can search, and the
// amount ReceiveAll skips past an undecodable sync point.
func (rx *Receiver) SyncRefSamples() int { return len(rx.syncRef) }

// FrameSpan decodes the SHR+PHR of a frame known to start at start (e.g.
// found by SynchronizeFirst) and returns the whole frame's sample span —
// SHR through the last PSDU chip, excluding the Q-arm tail. This is
// exactly the amount ReceiveAll advances past a decoded frame, so a
// streaming scanner that advances by FrameSpan visits the same sync
// offsets as whole-capture processing. The decoded preamble and SFD
// bytes are validated against the ParsePPDU rules: a sync point whose
// SHR content is wrong fails here, and a scanner that then advances by
// SyncRefSamples matches ReceiveAll's bad-frame advance (decodeFrom
// would reject the same frame at ParsePPDU). Decoding the frame body
// needs FrameSpan()+QOffsetSamples samples from start.
func (rx *Receiver) FrameSpan(waveform []complex128, start int) (int, error) {
	if start < 0 || start+len(rx.syncRef) > len(waveform) {
		return 0, fmt.Errorf("zigbee: frame start %d outside waveform of %d samples", start, len(waveform))
	}
	_, _, hdrBytes, err := rx.header(waveform, start, hdrChips/2*SamplesPerPulse+QOffsetSamples)
	if err != nil {
		return 0, err
	}
	for i := 0; i < PreambleBytes; i++ {
		if hdrBytes[i] != 0 {
			return 0, fmt.Errorf("zigbee: preamble byte %d is %#x, want 0", i, hdrBytes[i])
		}
	}
	if hdrBytes[PreambleBytes] != SFD {
		return 0, fmt.Errorf("zigbee: SFD is %#x, want %#x", hdrBytes[PreambleBytes], SFD)
	}
	psduLen := int(hdrBytes[PreambleBytes+1] & 0x7F)
	totalChips := (hdrSymbols + psduLen*SymbolsPerByte) * ChipsPerSymbol
	return totalChips / 2 * SamplesPerPulse, nil
}

// DecodeAt runs the post-synchronization receive pipeline on a frame known
// to start at start, skipping the preamble search. syncPeak is recorded in
// the Reception (callers that synchronized elsewhere pass the correlation
// peak they observed). It fills only what a stream verdict reads:
// PSDU, SoftChips, DiscriminatorChips, Results, SymbolErrors,
// PhaseEstimate, NoisePowerEstimate and SNREstimateDB, each identical to
// what Receive produces for the same frame, even from a tight frame
// slice. PeakChips and RecoveredChips stay nil; Receive and ReceiveAll
// fill them.
//
// The returned Reception is a view into receiver-owned scratch, valid
// until the receiver's next Receive/ReceiveAll/DecodeAt/FrameSpan call;
// use Reception.Copy to keep it longer.
func (rx *Receiver) DecodeAt(waveform []complex128, start int, syncPeak float64) (*Reception, error) {
	if start < 0 || start+len(rx.syncRef) > len(waveform) {
		return nil, fmt.Errorf("zigbee: frame start %d outside waveform of %d samples", start, len(waveform))
	}
	rx.arena.reset()
	return rx.decodeFrom(waveform, start, syncPeak, false)
}
