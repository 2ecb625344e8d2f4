package zigbee

import (
	"math/rand"
	"testing"

	"hideseek/internal/bits"
)

// chipString renders a sequence for comparison against standard-text vectors.
func chipString(c []bits.Bit) string {
	out := make([]byte, len(c))
	for i, b := range c {
		out[i] = '0' + b
	}
	return string(out)
}

func TestChipTableKnownVectors(t *testing.T) {
	// Reference sequences from IEEE 802.15.4 Table 12-1 (c0 first).
	tests := []struct {
		symbol byte
		want   string
	}{
		{symbol: 0, want: "11011001110000110101001000101110"},
		{symbol: 1, want: "11101101100111000011010100100010"},
		{symbol: 2, want: "00101110110110011100001101010010"},
		{symbol: 7, want: "10011100001101010010001011101101"},
		{symbol: 8, want: "10001100100101100000011101111011"},
	}
	for _, tt := range tests {
		got, err := ChipSequence(tt.symbol)
		if err != nil {
			t.Fatalf("symbol %d: %v", tt.symbol, err)
		}
		if s := chipString(got); s != tt.want {
			t.Errorf("symbol %d chips:\n got %s\nwant %s", tt.symbol, s, tt.want)
		}
	}
}

func TestChipSequenceValidation(t *testing.T) {
	if _, err := ChipSequence(16); err == nil {
		t.Error("accepted symbol 16")
	}
	seq, err := ChipSequence(3)
	if err != nil {
		t.Fatal(err)
	}
	seq[0] ^= 1
	again, _ := ChipSequence(3)
	if again[0] == seq[0] {
		t.Error("ChipSequence exposed internal table")
	}
}

func TestChipSequencesAreDistant(t *testing.T) {
	// DSSS works because codewords are far apart. Every pair must differ in
	// at least 12 chip positions (the family's design distance region);
	// anything closer would break the threshold-10 decoding the paper uses.
	for a := byte(0); a < 16; a++ {
		for b := a + 1; b < 16; b++ {
			sa, _ := ChipSequence(a)
			sb, _ := ChipSequence(b)
			d, err := bits.HammingDistance(sa, sb)
			if err != nil {
				t.Fatal(err)
			}
			if d < 12 {
				t.Errorf("symbols %d and %d only %d chips apart", a, b, d)
			}
		}
	}
}

func TestSpreadDespreadRoundTrip(t *testing.T) {
	symbols := []byte{0, 1, 5, 15, 8, 7, 3}
	chips, err := Spread(symbols)
	if err != nil {
		t.Fatal(err)
	}
	if len(chips) != len(symbols)*ChipsPerSymbol {
		t.Fatalf("chip count = %d", len(chips))
	}
	results, err := DespreadHard(chips, DefaultHammingThreshold)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Symbol != symbols[i] || r.Distance != 0 || r.Dropped {
			t.Errorf("symbol %d: got %+v", i, r)
		}
	}
}

func TestSpreadValidation(t *testing.T) {
	if _, err := Spread([]byte{0x10}); err == nil {
		t.Error("accepted out-of-range symbol")
	}
}

func TestDespreadHardToleratesErrorsUpToThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		sym := byte(rng.Intn(16))
		chips, _ := ChipSequence(sym)
		nErr := rng.Intn(6) // ≤ 5 flips keeps us nearest to the true codeword
		flipped := map[int]bool{}
		for len(flipped) < nErr {
			flipped[rng.Intn(ChipsPerSymbol)] = true
		}
		for idx := range flipped {
			chips[idx] ^= 1
		}
		res, err := DespreadHard(chips, DefaultHammingThreshold)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Symbol != sym {
			t.Errorf("trial %d: %d flips decoded %d as %d", trial, nErr, sym, res[0].Symbol)
		}
		if res[0].Dropped {
			t.Errorf("trial %d: %d flips dropped", trial, nErr)
		}
		if res[0].Distance != nErr {
			t.Errorf("trial %d: distance = %d, want %d", trial, res[0].Distance, nErr)
		}
	}
}

func TestDespreadHardDropsBeyondThreshold(t *testing.T) {
	chips, _ := ChipSequence(4)
	res, err := DespreadHard(chips, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Dropped {
		t.Error("exact codeword dropped at threshold 0")
	}
	chips[0] ^= 1
	res, err = DespreadHard(chips, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Dropped {
		t.Error("1-chip error accepted at threshold 0")
	}
}

func TestDespreadValidation(t *testing.T) {
	if _, err := DespreadHard(make([]bits.Bit, 31), 10); err == nil {
		t.Error("accepted non-multiple-of-32 chips")
	}
	if _, err := DespreadHard(make([]bits.Bit, 32), -1); err == nil {
		t.Error("accepted negative threshold")
	}
	if _, err := DespreadSoft(make([]float64, 33)); err == nil {
		t.Error("soft despread accepted bad length")
	}
}

func TestDespreadSoftMatchesHardOnCleanChips(t *testing.T) {
	symbols := []byte{2, 9, 14, 0}
	chips, err := Spread(symbols)
	if err != nil {
		t.Fatal(err)
	}
	soft := make([]float64, len(chips))
	for i, c := range chips {
		if c == 1 {
			soft[i] = 1
		} else {
			soft[i] = -1
		}
	}
	res, err := DespreadSoft(soft)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Symbol != symbols[i] || r.Distance != 0 {
			t.Errorf("symbol %d: got %+v", i, r)
		}
	}
}

func TestDespreadSoftBeatsHardAtHighNoise(t *testing.T) {
	// Soft-decision despreading should recover symbols from noisier chip
	// samples than hard-threshold despreading — this asymmetry is the basis
	// of the USRP-vs-commodity receiver split in Fig. 14.
	rng := rand.New(rand.NewSource(22))
	const trials = 300
	sigma := 1.4
	softOK, hardOK := 0, 0
	for trial := 0; trial < trials; trial++ {
		sym := byte(rng.Intn(16))
		chips, _ := ChipSequence(sym)
		soft := make([]float64, len(chips))
		for i, c := range chips {
			v := -1.0
			if c == 1 {
				v = 1
			}
			soft[i] = v + rng.NormFloat64()*sigma
		}
		sres, err := DespreadSoft(soft)
		if err != nil {
			t.Fatal(err)
		}
		if sres[0].Symbol == sym {
			softOK++
		}
		hres, err := DespreadHard(hardChips(soft), DefaultHammingThreshold)
		if err != nil {
			t.Fatal(err)
		}
		if hres[0].Symbol == sym && !hres[0].Dropped {
			hardOK++
		}
	}
	if softOK <= hardOK {
		t.Errorf("soft decoding (%d/%d) not better than hard (%d/%d)", softOK, trials, hardOK, trials)
	}
	if softOK < trials*80/100 {
		t.Errorf("soft decoding too weak: %d/%d", softOK, trials)
	}
}

func TestBytesSymbolsRoundTrip(t *testing.T) {
	data := []byte{0x00, 0xA7, 0x5C, 0xFF}
	syms := BytesToSymbols(data)
	want := []byte{0x0, 0x0, 0x7, 0xA, 0xC, 0x5, 0xF, 0xF}
	for i := range want {
		if syms[i] != want[i] {
			t.Errorf("symbol %d = %#x, want %#x", i, syms[i], want[i])
		}
	}
	back := make([]byte, len(syms)/2)
	if err := SymbolsToBytesInto(back, syms); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if back[i] != data[i] {
			t.Errorf("byte %d = %#x, want %#x", i, back[i], data[i])
		}
	}
	if err := SymbolsToBytesInto(nil, []byte{1}); err == nil {
		t.Error("accepted odd symbol count")
	}
	if err := SymbolsToBytesInto(make([]byte, 1), []byte{1, 16}); err == nil {
		t.Error("accepted 5-bit symbol")
	}
}
