package bits

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBytesToBitsLSB(t *testing.T) {
	tests := []struct {
		name string
		in   []byte
		want []Bit
	}{
		{name: "empty", in: nil, want: []Bit{}},
		{name: "one", in: []byte{0x01}, want: []Bit{1, 0, 0, 0, 0, 0, 0, 0}},
		{name: "msb", in: []byte{0x80}, want: []Bit{0, 0, 0, 0, 0, 0, 0, 1}},
		{name: "a7", in: []byte{0xA7}, want: []Bit{1, 1, 1, 0, 0, 1, 0, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := BytesToBitsLSB(tt.in)
			if len(got) != len(tt.want) {
				t.Fatalf("length = %d, want %d", len(got), len(tt.want))
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("bit %d = %d, want %d", i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestBitsBytesRoundTripLSB(t *testing.T) {
	f := func(data []byte) bool {
		back, err := BitsToBytesLSB(BytesToBitsLSB(data))
		return err == nil && bytes.Equal(back, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitsToBytesErrors(t *testing.T) {
	if _, err := BitsToBytesLSB(make([]Bit, 7)); err == nil {
		t.Error("BitsToBytesLSB accepted non-multiple-of-8 length")
	}
	if _, err := BitsToBytesLSB([]Bit{2, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("BitsToBytesLSB accepted non-bit value")
	}
}

func TestGrayRoundTrip(t *testing.T) {
	f := func(v uint32) bool { return GrayDecode(v^(v>>1)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHammingDistance(t *testing.T) {
	d, err := HammingDistance([]Bit{0, 1, 1, 0}, []Bit{1, 1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Errorf("distance = %d, want 2", d)
	}
	if _, err := HammingDistance([]Bit{0}, []Bit{0, 1}); err == nil {
		t.Error("HammingDistance accepted unequal lengths")
	}
}

func TestHammingDistanceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(64) + 1
		a := make([]Bit, n)
		b := make([]Bit, n)
		for i := range a {
			a[i] = Bit(rng.Intn(2))
			b[i] = Bit(rng.Intn(2))
		}
		dab, _ := HammingDistance(a, b)
		dba, _ := HammingDistance(b, a)
		if dab != dba {
			t.Fatalf("asymmetric distance: %d vs %d", dab, dba)
		}
		daa, _ := HammingDistance(a, a)
		if daa != 0 {
			t.Fatalf("self distance = %d", daa)
		}
		if dab < 0 || dab > n {
			t.Fatalf("distance %d out of range [0,%d]", dab, n)
		}
	}
}

func TestCRC16KnownVectors(t *testing.T) {
	// CRC-16/KERMIT check value for "123456789" is 0x2189.
	if got := CRC16([]byte("123456789")); got != 0x2189 {
		t.Errorf("CRC16(123456789) = %#04x, want 0x2189", got)
	}
	if got := CRC16(nil); got != 0 {
		t.Errorf("CRC16(nil) = %#04x, want 0", got)
	}
}

func TestCRC16DetectsSingleBitErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 32)
	rng.Read(data)
	ref := CRC16(data)
	for byteIdx := 0; byteIdx < len(data); byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			corrupt := make([]byte, len(data))
			copy(corrupt, data)
			corrupt[byteIdx] ^= 1 << uint(bit)
			if CRC16(corrupt) == ref {
				t.Fatalf("single-bit flip at byte %d bit %d undetected", byteIdx, bit)
			}
		}
	}
}

func TestScramblerPeriod127(t *testing.T) {
	s := NewScrambler(0x5D)
	seq := make([]Bit, 254)
	for i := range seq {
		seq[i] = s.Next()
	}
	for i := 0; i < 127; i++ {
		if seq[i] != seq[i+127] {
			t.Fatalf("sequence not periodic with period 127 at index %d", i)
		}
	}
	// A maximal-length LFSR emits 64 ones and 63 zeros per period.
	ones := 0
	for _, b := range seq[:127] {
		ones += int(b)
	}
	if ones != 64 {
		t.Errorf("ones per period = %d, want 64", ones)
	}
}

func TestScramblerSelfInverse(t *testing.T) {
	f := func(data []byte, seed byte) bool {
		in := BytesToBitsLSB(data)
		scrambled := NewScrambler(seed).ApplyCopy(in)
		back := NewScrambler(seed).ApplyCopy(scrambled)
		if len(back) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScramblerZeroSeedCoerced(t *testing.T) {
	s := NewScrambler(0)
	allZero := true
	for i := 0; i < 20; i++ {
		if s.Next() != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Error("zero seed produced the all-zero sequence")
	}
}
