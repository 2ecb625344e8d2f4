package wifi

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestDecodeFrameNeverPanicsOnGarbage fuzzes the aligned decoder.
func TestDecodeFrameNeverPanicsOnGarbage(t *testing.T) {
	f := func(seed int64, lenSel uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(lenSel%3000) + 1
		w := make([]complex128, n)
		for i := range w {
			w[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		_, _, _ = DecodeFrame(w)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSignalFieldCorruptionDetection flips bits of an encoded SIGNAL
// symbol's subcarriers and checks that decoding either fails (parity or
// unknown rate) or returns a plausible field — never panics, and single
// subcarrier flips are mostly corrected by the rate-1/2 code.
func TestSignalFieldCorruptionDetection(t *testing.T) {
	sym, err := EncodeSignal(SignalField{Rate: Rate54, Length: 321})
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for bin := 0; bin < NumSubcarriers; bin++ {
		corrupt := append([]complex128(nil), sym...)
		spec, err := AnalyzeSymbol(corrupt)
		if err != nil {
			t.Fatal(err)
		}
		spec[bin] = -spec[bin]
		td, err := SynthesizeSymbol(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSignal(td)
		if err == nil && got.Rate == Rate54 && got.Length == 321 {
			recovered++
		}
	}
	// A single flipped subcarrier is within the code's correction power
	// for the vast majority of positions.
	if recovered < 48 {
		t.Errorf("only %d/64 single-bin corruptions recovered", recovered)
	}
}

// TestDepunctureFuzz ensures depuncturing handles arbitrary lengths.
func TestDepunctureFuzz(t *testing.T) {
	f := func(data []byte, sel uint8) bool {
		in := make([]byte, len(data))
		for i, b := range data {
			in[i] = b & 1
		}
		rate := []PunctureRate{Rate12Coding, Rate23Coding, Rate34Coding}[sel%3]
		out, err := Depuncture(in, rate)
		if err != nil {
			return true
		}
		// Round trip must restore the punctured stream.
		back, err := Puncture(out, rate)
		if err != nil || len(back) != len(in) {
			return false
		}
		for i := range in {
			if back[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
