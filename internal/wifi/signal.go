package wifi

import (
	"fmt"

	"hideseek/internal/bits"
)

// Rate identifies an 802.11g ERP-OFDM data rate.
type Rate int

// Supported rates (Mb/s). Each maps to a modulation and coding rate per
// IEEE 802.11-2016 Table 17-4.
const (
	Rate6  Rate = 6  // BPSK  1/2
	Rate9  Rate = 9  // BPSK  3/4
	Rate12 Rate = 12 // QPSK  1/2
	Rate18 Rate = 18 // QPSK  3/4
	Rate24 Rate = 24 // 16QAM 1/2
	Rate36 Rate = 36 // 16QAM 3/4
	Rate48 Rate = 48 // 64QAM 2/3
	Rate54 Rate = 54 // 64QAM 3/4
)

// rateInfo captures per-rate PHY parameters.
type rateInfo struct {
	signalBits byte     // RATE field encoding (Table 17-6)
	order      QAMOrder // constellation
	puncture   PunctureRate
}

var rateTable = map[Rate]rateInfo{
	Rate6:  {signalBits: 0b1101, order: QAM4, puncture: Rate12Coding},  // BPSK handled specially
	Rate9:  {signalBits: 0b1111, order: QAM4, puncture: Rate34Coding},  // BPSK
	Rate12: {signalBits: 0b0101, order: QAM4, puncture: Rate12Coding},  // QPSK
	Rate18: {signalBits: 0b0111, order: QAM4, puncture: Rate34Coding},  // QPSK
	Rate24: {signalBits: 0b1001, order: QAM16, puncture: Rate12Coding}, // 16-QAM
	Rate36: {signalBits: 0b1011, order: QAM16, puncture: Rate34Coding}, // 16-QAM
	Rate48: {signalBits: 0b0001, order: QAM64, puncture: Rate23Coding}, // 64-QAM
	Rate54: {signalBits: 0b0011, order: QAM64, puncture: Rate34Coding}, // 64-QAM
}

// isBPSKRate reports whether the rate uses per-subcarrier BPSK.
func isBPSKRate(r Rate) bool { return r == Rate6 || r == Rate9 }

// SignalField is the decoded content of the legacy SIGNAL symbol.
type SignalField struct {
	Rate   Rate
	Length int // PSDU length in octets (12-bit field)
}

// EncodeSignal builds the 24-bit SIGNAL field (RATE | R | LENGTH | parity |
// tail), convolutionally encodes it at rate 1/2, interleaves it with the
// NCBPS = 48 interleaver, BPSK-maps it, and synthesizes the 80-sample
// OFDM symbol (always transmitted at the base rate, symbol index 0).
func EncodeSignal(f SignalField) ([]complex128, error) {
	info, ok := rateTable[f.Rate]
	if !ok {
		return nil, fmt.Errorf("wifi: unsupported rate %d", f.Rate)
	}
	if f.Length < 1 || f.Length > 4095 {
		return nil, fmt.Errorf("wifi: SIGNAL length %d outside [1, 4095]", f.Length)
	}
	raw := make([]bits.Bit, 24)
	// RATE bits R1–R4 occupy positions 0–3, R1 (the MSB of the Table 17-6
	// encoding as written here) first.
	for i := 0; i < 4; i++ {
		raw[i] = bits.Bit((info.signalBits >> uint(3-i)) & 1)
	}
	// Position 4 reserved (0). LENGTH in positions 5–16, LSB first.
	for i := 0; i < 12; i++ {
		raw[5+i] = bits.Bit((f.Length >> uint(i)) & 1)
	}
	// Even parity over bits 0–16 at position 17; tail 18–23 zero.
	var parity bits.Bit
	for _, b := range raw[:17] {
		parity ^= b
	}
	raw[17] = parity

	coded := ConvEncode(raw) // 48 bits
	perm, err := signalInterleaver()
	if err != nil {
		return nil, err
	}
	interleaved, err := perm.Interleave(coded)
	if err != nil {
		return nil, fmt.Errorf("wifi: SIGNAL interleave: %w", err)
	}
	data := make([]complex128, NumDataSubcarriers)
	for i, b := range interleaved {
		data[i] = bpskPoint(b)
	}
	spec, err := AssembleSpectrum(data, 0)
	if err != nil {
		return nil, fmt.Errorf("wifi: SIGNAL assemble: %w", err)
	}
	return SynthesizeSymbol(spec)
}

// DecodeSignal inverts EncodeSignal from one 80-sample OFDM symbol,
// verifying the parity bit and rejecting unknown rate encodings.
func DecodeSignal(symbol []complex128) (SignalField, error) {
	spec, err := AnalyzeSymbol(symbol)
	if err != nil {
		return SignalField{}, fmt.Errorf("wifi: SIGNAL analyze: %w", err)
	}
	data, err := DisassembleSpectrum(spec)
	if err != nil {
		return SignalField{}, err
	}
	hard := make([]bits.Bit, NumDataSubcarriers)
	for i, v := range data {
		if real(v) >= 0 {
			hard[i] = 1
		}
	}
	perm, err := signalInterleaver()
	if err != nil {
		return SignalField{}, err
	}
	coded, err := perm.Deinterleave(hard)
	if err != nil {
		return SignalField{}, fmt.Errorf("wifi: SIGNAL deinterleave: %w", err)
	}
	raw, err := ViterbiDecode(coded)
	if err != nil {
		return SignalField{}, fmt.Errorf("wifi: SIGNAL viterbi: %w", err)
	}
	var parity bits.Bit
	for _, b := range raw[:17] {
		parity ^= b
	}
	if parity != raw[17] {
		return SignalField{}, fmt.Errorf("wifi: SIGNAL parity check failed")
	}
	var rateBits byte
	for i := 0; i < 4; i++ {
		rateBits |= byte(raw[i]) << uint(3-i)
	}
	var rate Rate
	found := false
	for r, info := range rateTable {
		if info.signalBits == rateBits {
			rate, found = r, true
			break
		}
	}
	if !found {
		return SignalField{}, fmt.Errorf("wifi: unknown RATE encoding %#04b", rateBits)
	}
	length := 0
	for i := 0; i < 12; i++ {
		length |= int(raw[5+i]) << uint(i)
	}
	if length == 0 {
		return SignalField{}, fmt.Errorf("wifi: SIGNAL length 0")
	}
	return SignalField{Rate: rate, Length: length}, nil
}

// signalInterleaver returns the NCBPS=48 (BPSK) interleaver used by the
// SIGNAL symbol and the 6/9 Mb/s data rates.
func signalInterleaver() (*bpskInterleaver, error) {
	return newBPSKInterleaver()
}

// bpskInterleaver is the s=1 two-permutation interleaver for NBPSC=1.
type bpskInterleaver struct {
	perm []int
	inv  []int
}

func newBPSKInterleaver() (*bpskInterleaver, error) {
	const ncbps = NumDataSubcarriers // 48
	perm := make([]int, ncbps)
	for k := 0; k < ncbps; k++ {
		i := (ncbps/16)*(k%16) + k/16
		// s = max(NBPSC/2, 1) = 1 ⇒ second permutation is the identity on i.
		perm[k] = i
	}
	inv := make([]int, ncbps)
	for k, j := range perm {
		inv[j] = k
	}
	return &bpskInterleaver{perm: perm, inv: inv}, nil
}

// Interleave permutes whole 48-bit blocks.
func (il *bpskInterleaver) Interleave(in []bits.Bit) ([]bits.Bit, error) {
	return il.apply(in, il.perm)
}

// Deinterleave inverts Interleave.
func (il *bpskInterleaver) Deinterleave(in []bits.Bit) ([]bits.Bit, error) {
	return il.apply(in, il.inv)
}

func (il *bpskInterleaver) apply(in []bits.Bit, perm []int) ([]bits.Bit, error) {
	n := len(perm)
	if len(in)%n != 0 {
		return nil, fmt.Errorf("wifi: BPSK interleaver input %d not a multiple of %d", len(in), n)
	}
	out := make([]bits.Bit, len(in))
	for blk := 0; blk < len(in); blk += n {
		for k := 0; k < n; k++ {
			out[blk+perm[k]] = in[blk+k]
		}
	}
	return out, nil
}

// bpskPoint maps one bit to the BPSK constellation (±1 on the real axis).
func bpskPoint(b bits.Bit) complex128 {
	if b == 1 {
		return 1
	}
	return -1
}
