package wifi

import (
	"math/rand"
	"testing"
)

func BenchmarkTransmit64QAM(b *testing.B) {
	tx, err := NewTransmitter(QAM64, 0x5D)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	data := randomBits(rng, tx.BitsPerOFDMSymbol()*4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.Transmit(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViterbiDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	coded := ConvEncode(randomBits(rng, 576))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ViterbiDecode(coded); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQAM64MapDemap(b *testing.B) {
	c, err := NewConstellation(QAM64)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	data := randomBits(rng, 288)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syms, err := c.Map(data)
		if err != nil {
			b.Fatal(err)
		}
		c.Demap(syms)
	}
}

func BenchmarkSynthesizeSymbol(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	data := make([]complex128, NumDataSubcarriers)
	for i := range data {
		data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	spec, err := AssembleSpectrum(data, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SynthesizeSymbol(spec); err != nil {
			b.Fatal(err)
		}
	}
}
