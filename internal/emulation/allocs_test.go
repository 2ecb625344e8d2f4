package emulation

import (
	"strings"
	"testing"

	"hideseek/internal/zigbee"
)

// Emulate necessarily allocates its Result (every field escapes to the
// caller), but with warm scratch the interpolation, α search, per-segment
// FFT/IFFT, quantization and decimation stages must not add per-call
// garbage that grows with the frame: a 5-byte and a 65-byte PSDU (~4×
// the segments) allocate the same count, within a budget far below the
// unoptimized pipeline (which allocated per segment: spectra,
// synthesized symbols, QAM points and a freshly designed decimation FIR).
func TestEmulateAllocsWithWarmScratch(t *testing.T) {
	em, err := NewEmulator(AttackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 20 // 14 on amd64 with Go 1.24
	var counts []float64
	for _, psdu := range []string{"00000", strings.Repeat("0123456789abc", 5)} {
		observed, err := zigbee.NewTransmitter().TransmitPSDU([]byte(psdu))
		if err != nil {
			t.Fatal(err)
		}
		res, err := em.Emulate(observed) // warm the scratch
		if err != nil {
			t.Fatal(err)
		}
		if res.NumSegments == 0 || len(res.Emulated4M) == 0 {
			t.Fatal("degenerate emulation result")
		}
		n := testing.AllocsPerRun(5, func() {
			r, err := em.Emulate(observed)
			if err != nil || r == nil {
				t.Fatal(err)
			}
		})
		if n > budget {
			t.Fatalf("%d-byte PSDU: Emulate allocated %v per run with warm scratch, budget %d", len(psdu), n, budget)
		}
		counts = append(counts, n)
	}
	if counts[0] != counts[1] {
		t.Fatalf("Emulate allocations grow with the frame: %v (5-byte PSDU) vs %v (65-byte PSDU)", counts[0], counts[1])
	}
}

// Scratch reuse must never leak into results: two consecutive Emulate calls
// on different observations must leave the first result intact.
func TestEmulateResultsDoNotAliasScratch(t *testing.T) {
	tx := zigbee.NewTransmitter()
	a, err := tx.TransmitPSDU([]byte("frameA"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tx.TransmitPSDU([]byte("another-frame-B"))
	if err != nil {
		t.Fatal(err)
	}
	em, err := NewEmulator(AttackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	resA, err := em.Emulate(a)
	if err != nil {
		t.Fatal(err)
	}
	obs := append([]complex128(nil), resA.Observed20M...)
	emu := append([]complex128(nil), resA.Emulated20M...)
	if _, err := em.Emulate(b); err != nil {
		t.Fatal(err)
	}
	for i := range obs {
		if resA.Observed20M[i] != obs[i] {
			t.Fatalf("Observed20M[%d] mutated by later Emulate call", i)
		}
	}
	for i := range emu {
		if resA.Emulated20M[i] != emu[i] {
			t.Fatalf("Emulated20M[%d] mutated by later Emulate call", i)
		}
	}
}

// QAMPoints segments share one backing array but are capped, so appending
// to one reallocates instead of overwriting the next.
func TestEmulateQAMPointsAreCapped(t *testing.T) {
	em, err := NewEmulator(AttackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	obs, err := zigbee.NewTransmitter().TransmitPSDU([]byte("capped"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := em.Emulate(obs)
	if err != nil {
		t.Fatal(err)
	}
	next := res.QAMPoints[1][0]
	_ = append(res.QAMPoints[0], 1e9)
	if res.QAMPoints[1][0] != next {
		t.Fatal("append to QAMPoints[0] overwrote QAMPoints[1]")
	}
}
