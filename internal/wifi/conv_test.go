package wifi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hideseek/internal/bits"
)

func randomBits(rng *rand.Rand, n int) []bits.Bit {
	out := make([]bits.Bit, n)
	for i := range out {
		out[i] = bits.Bit(rng.Intn(2))
	}
	return out
}

func TestConvEncodeKnownVector(t *testing.T) {
	// Input 1 0 1 1 from zero state. Hand-computed with g0=133, g1=171:
	// t0: reg=1000000 → a=1 b=1
	// t1: reg=0100000 → a=0 b=1
	// t2: reg=1010000 → a=0 b=0
	// t3: reg=1101000 → a=0 b=1
	got := ConvEncode([]bits.Bit{1, 0, 1, 1})
	want := []bits.Bit{1, 1, 0, 1, 0, 0, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("length = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("coded[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestConvEncodeRate(t *testing.T) {
	if got := ConvEncode(make([]bits.Bit, 37)); len(got) != 74 {
		t.Errorf("output length = %d, want 74", len(got))
	}
	if got := ConvEncode(nil); len(got) != 0 {
		t.Errorf("empty input gave %d bits", len(got))
	}
}

func TestViterbiDecodesCleanStream(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		in := bits.BytesToBitsLSB(data)
		out, err := ViterbiDecode(ConvEncode(in))
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestViterbiCorrectsScatteredErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 20; trial++ {
		in := randomBits(rng, 256)
		coded := ConvEncode(in)
		// Flip ~2% of coded bits, spaced well apart (free distance 10 ⇒
		// up to 4 errors per constraint span are correctable; scattered
		// singles certainly are).
		for pos := 13; pos < len(coded); pos += 47 {
			coded[pos] ^= 1
		}
		out, err := ViterbiDecode(coded)
		if err != nil {
			t.Fatal(err)
		}
		errs := 0
		for i := range in {
			if out[i] != in[i] {
				errs++
			}
		}
		if errs != 0 {
			t.Fatalf("trial %d: %d residual errors", trial, errs)
		}
	}
}

func TestViterbiValidation(t *testing.T) {
	if _, err := ViterbiDecode(make([]bits.Bit, 3)); err == nil {
		t.Error("accepted odd-length input")
	}
	if _, err := ViterbiDecode([]bits.Bit{5, 0}); err == nil {
		t.Error("accepted non-bit values")
	}
	out, err := ViterbiDecode(nil)
	if err != nil || out != nil {
		t.Errorf("empty decode = %v, %v", out, err)
	}
}

func TestInterleaverRoundTrip(t *testing.T) {
	for _, order := range []QAMOrder{QAM4, QAM16, QAM64} {
		c, err := NewConstellation(order)
		if err != nil {
			t.Fatal(err)
		}
		il, err := NewInterleaver(c)
		if err != nil {
			t.Fatal(err)
		}
		if il.BlockSize() != 48*c.BitsPerSymbol() {
			t.Errorf("order %d NCBPS = %d", order, il.BlockSize())
		}
		rng := rand.New(rand.NewSource(int64(order)))
		in := randomBits(rng, il.BlockSize()*3)
		mid, err := il.Interleave(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := il.Deinterleave(mid)
		if err != nil {
			t.Fatal(err)
		}
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("order %d: bit %d lost", order, i)
			}
		}
		// The permutation must not be the identity.
		same := true
		for i := range in {
			if mid[i] != in[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("order %d: interleaver is identity", order)
		}
	}
}

func TestInterleaverSpreadsAdjacentBits(t *testing.T) {
	// The point of the interleaver: adjacent coded bits must land on
	// different subcarriers. Verify for 64-QAM that consecutive input bits
	// are ≥ 3 positions apart after interleaving (they map to different
	// 6-bit subcarrier groups).
	c, err := NewConstellation(QAM64)
	if err != nil {
		t.Fatal(err)
	}
	il, err := NewInterleaver(c)
	if err != nil {
		t.Fatal(err)
	}
	n := il.BlockSize()
	pos := make([]int, n)
	for k := 0; k < n; k++ {
		in := make([]bits.Bit, n)
		in[k] = 1
		out, err := il.Interleave(in)
		if err != nil {
			t.Fatal(err)
		}
		for j, b := range out {
			if b == 1 {
				pos[k] = j
				break
			}
		}
	}
	for k := 0; k+1 < n; k++ {
		if pos[k]/6 == pos[k+1]/6 {
			t.Errorf("input bits %d,%d share subcarrier group %d", k, k+1, pos[k]/6)
		}
	}
}

func TestInterleaverValidation(t *testing.T) {
	if _, err := NewInterleaver(nil); err == nil {
		t.Error("accepted nil constellation")
	}
	c, err := NewConstellation(QAM64)
	if err != nil {
		t.Fatal(err)
	}
	il, err := NewInterleaver(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := il.Interleave(make([]bits.Bit, 7)); err == nil {
		t.Error("accepted partial block")
	}
	if _, err := il.Deinterleave(make([]bits.Bit, 7)); err == nil {
		t.Error("accepted partial block")
	}
}
