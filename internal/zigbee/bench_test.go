package zigbee

import (
	"math/rand"
	"testing"
)

func benchWaveform(b *testing.B) []complex128 {
	b.Helper()
	tx := NewTransmitter()
	wave, err := tx.TransmitPSDU([]byte("00000"))
	if err != nil {
		b.Fatal(err)
	}
	return wave
}

// benchSynchronize times the preamble search over one default-length
// frame waveform on the chosen sync path.
func benchSynchronize(b *testing.B, direct bool) {
	b.Helper()
	wave := benchWaveform(b)
	rx, err := NewReceiver(ReceiverConfig{DirectSync: direct})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rx.SynchronizeFirst(wave); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynchronize(b *testing.B)       { benchSynchronize(b, false) }
func BenchmarkSynchronizeDirect(b *testing.B) { benchSynchronize(b, true) }

// benchCapture is a multi-frame recording with noise-floor gaps — the
// shape ReceiveAll and the streaming scanner chew on continuously.
func benchCapture(b *testing.B) []complex128 {
	b.Helper()
	wave := benchWaveform(b)
	rng := rand.New(rand.NewSource(9))
	gap := func(n int) []complex128 {
		g := make([]complex128, n)
		for i := range g {
			g[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-3
		}
		return g
	}
	var capture []complex128
	for i := 0; i < 3; i++ {
		capture = append(capture, gap(900)...)
		capture = append(capture, wave...)
	}
	return append(capture, gap(900)...)
}

// benchReceiveAll times whole-capture multi-frame reception (sync +
// decode) on the chosen sync path.
func benchReceiveAll(b *testing.B, direct bool) {
	b.Helper()
	capture := benchCapture(b)
	rx, err := NewReceiver(ReceiverConfig{DirectSync: direct})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := rx.ReceiveAll(capture, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != 3 {
			b.Fatalf("decoded %d frames, want 3", len(recs))
		}
	}
}

func BenchmarkReceiveAll(b *testing.B)       { benchReceiveAll(b, false) }
func BenchmarkReceiveAllDirect(b *testing.B) { benchReceiveAll(b, true) }

func BenchmarkTransmitPSDU(b *testing.B) {
	tx := NewTransmitter()
	payload := []byte("00000")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tx.TransmitPSDU(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReceiveHard(b *testing.B) {
	wave := benchWaveform(b)
	rx, err := NewReceiver(ReceiverConfig{Mode: HardThreshold})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rx.Receive(wave); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReceiveSoft(b *testing.B) {
	wave := benchWaveform(b)
	rx, err := NewReceiver(ReceiverConfig{Mode: SoftCorrelation})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rx.Receive(wave); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReceiveFMDiscriminator(b *testing.B) {
	wave := benchWaveform(b)
	rx, err := NewReceiver(ReceiverConfig{Mode: FMDiscriminator})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rx.Receive(wave); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModulate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	chips := randomChips(rng, 704)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Modulate(chips); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDespreadHard(b *testing.B) {
	chips, err := Spread([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DespreadHard(chips, DefaultHammingThreshold); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClockRecovery(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	chips := randomChips(rng, 704)
	wave, err := Modulate(chips)
	if err != nil {
		b.Fatal(err)
	}
	cr := DefaultClockRecovery()
	soft := make([]float64, len(chips))
	timing := make([]float64, len(chips)/2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cr.RecoverInto(soft, timing, wave); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeAt times the post-synchronization decode of one frame —
// the stream worker's steady-state unit of work.
func BenchmarkDecodeAt(b *testing.B) {
	wave := benchWaveform(b)
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		b.Fatal(err)
	}
	start, peak, err := rx.SynchronizeFirst(wave)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rx.DecodeAt(wave, start, peak); err != nil {
			b.Fatal(err)
		}
	}
}
