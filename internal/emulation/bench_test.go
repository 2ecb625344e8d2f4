package emulation

import (
	"testing"

	"hideseek/internal/wifi"
	"hideseek/internal/zigbee"
)

func benchObservation(b *testing.B) []complex128 {
	b.Helper()
	tx := zigbee.NewTransmitter()
	obs, err := tx.TransmitPSDU([]byte("00000"))
	if err != nil {
		b.Fatal(err)
	}
	return obs
}

func BenchmarkEmulate(b *testing.B) {
	obs := benchObservation(b)
	em, err := NewEmulator(AttackConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.Emulate(obs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmulateFixedBins(b *testing.B) {
	obs := benchObservation(b)
	em, err := NewEmulator(AttackConfig{SubcarrierIndices: DefaultSubcarrierIndices})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.Emulate(obs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeAlpha times Eq. (4)'s grid search on the raw kept
// frequency points Emulate optimizes over: the 3.2 µs tail spectra of the
// interpolated observation at the selected bins, not yet on the QAM grid.
func BenchmarkOptimizeAlpha(b *testing.B) {
	em, err := NewEmulator(AttackConfig{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := em.Emulate(benchObservation(b))
	if err != nil {
		b.Fatal(err)
	}
	benchOptimizeAlpha(b, res)
}

// BenchmarkOptimizeAlphaLoRa is BenchmarkOptimizeAlpha on a Wi-Lo forgery
// of a 16-byte LoRa payload (~11.6k kept points): the attacker's largest
// inputs.
func BenchmarkOptimizeAlphaLoRa(b *testing.B) {
	em, err := NewEmulator(AttackConfig{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := ForgeLoRaPayload(em, digestPSDU(16))
	if err != nil {
		b.Fatal(err)
	}
	benchOptimizeAlpha(b, res)
}

// benchOptimizeAlpha re-derives the kept points of res and times
// OptimizeAlpha on them.
func benchOptimizeAlpha(b *testing.B, res *Result) {
	b.Helper()
	c, err := wifi.NewConstellation(wifi.QAM64)
	if err != nil {
		b.Fatal(err)
	}
	spec := make([]complex128, wifi.NumSubcarriers)
	points := make([]complex128, 0, res.NumSegments*len(res.Bins))
	for s := 0; s < res.NumSegments; s++ {
		if err := wifi.AnalyzeSymbolInto(spec, res.Observed20M[s*wifi.SymbolSamples:(s+1)*wifi.SymbolSamples]); err != nil {
			b.Fatal(err)
		}
		for _, k := range res.Bins {
			points = append(points, spec[k])
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OptimizeAlpha(c, points, AlphaGrid{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectorAnalyze(b *testing.B) {
	obs := benchObservation(b)
	rx, err := zigbee.NewReceiver(zigbee.ReceiverConfig{SyncThreshold: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	rec, err := rx.Receive(obs)
	if err != nil {
		b.Fatal(err)
	}
	det, err := NewDetector(DefenseConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.AnalyzeReception(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodedEmulation(b *testing.B) {
	obs := benchObservation(b)
	em, err := NewEmulator(AttackConfig{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := em.Emulate(obs)
	if err != nil {
		b.Fatal(err)
	}
	tx, err := wifi.NewTransmitter(wifi.QAM64, 0x5D)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CodedEmulation(res, tx); err != nil {
			b.Fatal(err)
		}
	}
}
