package zigbee

import (
	"fmt"

	"hideseek/internal/bits"
)

// symbol0Chips is the 32-chip PN sequence for data symbol 0 from IEEE
// 802.15.4 Table 12-1 (c0 first). Symbols 1–7 are successive cyclic right
// shifts by 4 chips; symbols 8–15 invert the odd-indexed (Q-phase) chips.
var symbol0Chips = [ChipsPerSymbol]bits.Bit{
	1, 1, 0, 1, 1, 0, 0, 1,
	1, 1, 0, 0, 0, 0, 1, 1,
	0, 1, 0, 1, 0, 0, 1, 0,
	0, 0, 1, 0, 1, 1, 1, 0,
}

// chipTable holds all 16 spreading sequences, generated once at package
// init from symbol0Chips so the derivation rule is executable documentation.
var chipTable = buildChipTable()

func buildChipTable() [16][ChipsPerSymbol]bits.Bit {
	var table [16][ChipsPerSymbol]bits.Bit
	table[0] = symbol0Chips
	for s := 1; s < 8; s++ {
		// Cyclic right shift by 4 chips relative to the previous symbol.
		prev := table[s-1]
		for i := 0; i < ChipsPerSymbol; i++ {
			table[s][(i+4)%ChipsPerSymbol] = prev[i]
		}
	}
	for s := 8; s < 16; s++ {
		base := table[s-8]
		for i := 0; i < ChipsPerSymbol; i++ {
			if i%2 == 1 {
				table[s][i] = 1 - base[i]
			} else {
				table[s][i] = base[i]
			}
		}
	}
	return table
}

// chipPM holds the 16 spreading sequences in ±1 float form — the codebook
// the receiver's soft despreader correlates against (correlation against
// ±1 codewords reproduces the add/subtract accumulation of DespreadSoft
// bit for bit).
var chipPM = func() [16][ChipsPerSymbol]float64 {
	var pm [16][ChipsPerSymbol]float64
	for s := range chipTable {
		for i, c := range chipTable[s] {
			if c == 1 {
				pm[s][i] = 1
			} else {
				pm[s][i] = -1
			}
		}
	}
	return pm
}()

// differentialTable precomputes DifferentialChipSequence for all 16
// symbols so the FM despread loop never rebuilds the patterns.
var differentialTable = func() [16][ChipsPerSymbol - 1]bits.Bit {
	var table [16][ChipsPerSymbol - 1]bits.Bit
	for s := byte(0); s < 16; s++ {
		seq, err := DifferentialChipSequence(s)
		if err != nil {
			panic(err)
		}
		copy(table[s][:], seq)
	}
	return table
}()

// ChipSequence returns a copy of the 32-chip spreading sequence for a data
// symbol (0–15).
func ChipSequence(symbol byte) ([]bits.Bit, error) {
	if symbol > 0x0F {
		return nil, fmt.Errorf("zigbee: symbol %#x exceeds 4 bits", symbol)
	}
	out := make([]bits.Bit, ChipsPerSymbol)
	copy(out, chipTable[symbol][:])
	return out, nil
}

// Spread maps each 4-bit symbol to its 32-chip sequence, concatenated.
func Spread(symbols []byte) ([]bits.Bit, error) {
	return SpreadAppend(make([]bits.Bit, 0, len(symbols)*ChipsPerSymbol), symbols)
}

// SpreadAppend is Spread appending to dst (usually a reused scratch slice
// reset to length 0), so hot paths can spread without reallocating.
func SpreadAppend(dst []bits.Bit, symbols []byte) ([]bits.Bit, error) {
	for i, s := range symbols {
		if s > 0x0F {
			return nil, fmt.Errorf("zigbee: symbol %#x at index %d exceeds 4 bits", s, i)
		}
		dst = append(dst, chipTable[s][:]...)
	}
	return dst, nil
}

// DifferentialChipSequence returns the expected FM-discriminator chip
// pattern for a data symbol. Half-sine O-QPSK is MSK, and the discriminator
// output during chip period k has sign ∓c_k·c_{k−1} (±1 chip
// representation) with the sign alternating by parity: even periods are
// I-led (d_k = −c_k·c_{k−1}), odd periods are Q-led (d_k = +c_k·c_{k−1}).
// Only the 31 inner chips (k = 1..31) are returned — chip 0 depends on the
// previous symbol's last chip, so receivers mask it, as the GNU Radio
// 802.15.4 implementation does.
func DifferentialChipSequence(symbol byte) ([]bits.Bit, error) {
	if symbol > 0x0F {
		return nil, fmt.Errorf("zigbee: symbol %#x exceeds 4 bits", symbol)
	}
	seq := chipTable[symbol]
	out := make([]bits.Bit, ChipsPerSymbol-1)
	for k := 1; k < ChipsPerSymbol; k++ {
		differ := seq[k] != seq[k-1]
		if k%2 == 0 {
			// I-led: differing chips give positive frequency.
			if differ {
				out[k-1] = 1
			}
		} else {
			// Q-led: equal chips give positive frequency.
			if !differ {
				out[k-1] = 1
			}
		}
	}
	return out, nil
}

// DespreadDiscriminator decodes FM-discriminator chip values (one per
// chip, sign-significant) with hard decisions against the differential
// chip patterns, masking each window's boundary chip. This is the decode
// path of an FM-front-end receiver (USRP + GNU Radio): it inherits the
// discriminator's noise amplification at low SNR, which is what gives the
// paper's Table II its shape. threshold is the Hamming drop threshold over
// the 31 inner chips.
func DespreadDiscriminator(disc []float64, threshold int) ([]DespreadResult, error) {
	if len(disc)%ChipsPerSymbol != 0 {
		return nil, fmt.Errorf("zigbee: discriminator chip count %d not a multiple of %d", len(disc), ChipsPerSymbol)
	}
	if threshold < 0 {
		return nil, fmt.Errorf("zigbee: negative threshold %d", threshold)
	}
	out := make([]DespreadResult, 0, len(disc)/ChipsPerSymbol)
	hard := make([]bits.Bit, ChipsPerSymbol-1)
	for off := 0; off < len(disc); off += ChipsPerSymbol {
		window := disc[off : off+ChipsPerSymbol]
		for k := 1; k < ChipsPerSymbol; k++ {
			if window[k] >= 0 {
				hard[k-1] = 1
			} else {
				hard[k-1] = 0
			}
		}
		best, bestDist := byte(0), ChipsPerSymbol+1
		for s := byte(0); s < 16; s++ {
			d, err := bits.HammingDistance(hard, differentialTable[s][:])
			if err != nil {
				return nil, fmt.Errorf("zigbee: discriminator despread: %w", err)
			}
			if d < bestDist {
				best, bestDist = s, d
			}
		}
		out = append(out, DespreadResult{
			Symbol:   best,
			Distance: bestDist,
			Dropped:  bestDist > threshold,
		})
	}
	return out, nil
}

// DespreadResult reports one despread 32-chip window.
type DespreadResult struct {
	Symbol   byte // best-matching data symbol
	Distance int  // Hamming distance to that symbol's sequence
	Dropped  bool // true when Distance exceeded the threshold
}

// DespreadHard decodes chips with the hard-decision rule from the paper's
// Fig. 1: each 32-chip window maps to the symbol at minimum Hamming
// distance, and windows farther than threshold from every codeword are
// dropped. len(chips) must be a multiple of 32.
func DespreadHard(chips []bits.Bit, threshold int) ([]DespreadResult, error) {
	if len(chips)%ChipsPerSymbol != 0 {
		return nil, fmt.Errorf("zigbee: chip count %d not a multiple of %d", len(chips), ChipsPerSymbol)
	}
	if threshold < 0 {
		return nil, fmt.Errorf("zigbee: negative threshold %d", threshold)
	}
	out := make([]DespreadResult, 0, len(chips)/ChipsPerSymbol)
	for off := 0; off < len(chips); off += ChipsPerSymbol {
		window := chips[off : off+ChipsPerSymbol]
		best, bestDist := byte(0), ChipsPerSymbol+1
		for s := 0; s < 16; s++ {
			d, err := bits.HammingDistance(window, chipTable[s][:])
			if err != nil {
				return nil, fmt.Errorf("zigbee: despread: %w", err)
			}
			if d < bestDist {
				best, bestDist = byte(s), d
			}
		}
		out = append(out, DespreadResult{
			Symbol:   best,
			Distance: bestDist,
			Dropped:  bestDist > threshold,
		})
	}
	return out, nil
}

// DespreadSoft decodes soft chip samples (sign carries the chip value,
// magnitude the confidence) by correlating each 32-sample window against
// the ±1 versions of all 16 codewords and picking the maximum. This models
// the stronger demodulator in commodity chips (CC26x2R1) that lets the
// paper's attack succeed at 8 m where the USRP receiver fails (Fig. 14).
func DespreadSoft(soft []float64) ([]DespreadResult, error) {
	if len(soft)%ChipsPerSymbol != 0 {
		return nil, fmt.Errorf("zigbee: soft chip count %d not a multiple of %d", len(soft), ChipsPerSymbol)
	}
	out := make([]DespreadResult, 0, len(soft)/ChipsPerSymbol)
	for off := 0; off < len(soft); off += ChipsPerSymbol {
		window := soft[off : off+ChipsPerSymbol]
		best, bestCorr := byte(0), -1e300
		for s := 0; s < 16; s++ {
			var corr float64
			for i, c := range chipTable[s] {
				if c == 1 {
					corr += window[i]
				} else {
					corr -= window[i]
				}
			}
			if corr > bestCorr {
				best, bestCorr = byte(s), corr
			}
		}
		// Report the hard Hamming distance too so both receiver models
		// expose comparable diagnostics.
		hard := make([]bits.Bit, ChipsPerSymbol)
		for i, v := range window {
			if v >= 0 {
				hard[i] = 1
			}
		}
		d, err := bits.HammingDistance(hard, chipTable[best][:])
		if err != nil {
			return nil, fmt.Errorf("zigbee: soft despread: %w", err)
		}
		out = append(out, DespreadResult{Symbol: best, Distance: d})
	}
	return out, nil
}
