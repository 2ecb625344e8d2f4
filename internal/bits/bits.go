// Package bits provides bit-level utilities shared by the PHY
// implementations: LSB-first bit/byte packing, Gray decoding, CRC-16/CCITT
// (the IEEE 802.15.4 FCS), and the IEEE 802.11 frame scrambler.
package bits

import "fmt"

// Bit is a single binary digit stored in a byte (0 or 1). Slices of Bit are
// the common currency between coding stages; they trade memory for clarity
// and index-addressability, which the interleavers and spreaders need.
type Bit = byte

// BytesToBitsLSB unpacks data into bits, least-significant bit of each byte
// first. IEEE 802.15.4 and 802.11 both serialize octets LSB-first.
func BytesToBitsLSB(data []byte) []Bit {
	out := make([]Bit, 0, len(data)*8)
	for _, b := range data {
		for i := 0; i < 8; i++ {
			out = append(out, (b>>uint(i))&1)
		}
	}
	return out
}

// BitsToBytesLSB packs bits into bytes, least-significant bit first.
// len(bits) must be a multiple of 8.
func BitsToBytesLSB(bs []Bit) ([]byte, error) {
	if len(bs)%8 != 0 {
		return nil, fmt.Errorf("bits: length %d is not a multiple of 8", len(bs))
	}
	out := make([]byte, len(bs)/8)
	for i, b := range bs {
		if b > 1 {
			return nil, fmt.Errorf("bits: value %d at index %d is not a bit", b, i)
		}
		out[i/8] |= b << uint(i%8)
	}
	return out, nil
}

// GrayDecode maps a Gray code g = v ^ (v >> 1) back to its binary index v.
func GrayDecode(g uint32) uint32 {
	v := g
	for shift := uint(1); shift < 32; shift <<= 1 {
		v ^= v >> shift
	}
	return v
}

// HammingDistance counts positions where a and b differ. The slices must
// have equal length; extra trailing elements are an error because a silent
// truncation would corrupt DSSS correlation thresholds.
func HammingDistance(a, b []Bit) (int, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("bits: hamming distance of unequal lengths %d and %d", len(a), len(b))
	}
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d, nil
}
