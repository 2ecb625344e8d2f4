package iq

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

func TestReaderCF32Blocks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 1000
	samples := make([]complex128, n)
	for i := range samples {
		// Keep values exactly float32-representable so the round trip is
		// lossless.
		samples[i] = complex(float64(float32(rng.NormFloat64())), float64(float32(rng.NormFloat64())))
	}
	var buf bytes.Buffer
	if err := WriteCF32(&buf, samples); err != nil {
		t.Fatal(err)
	}
	r := NewReaderCF32(&buf)
	var got []complex128
	block := make([]complex128, 64)
	// n/64 full blocks, one short block and the EOF call: any more calls
	// (or a (0, nil) result, which the contract rules out) means the
	// reader stopped making progress, so fail instead of spinning.
	for calls := 0; ; calls++ {
		if calls > n/len(block)+2 {
			t.Fatalf("no EOF after %d ReadBlock calls (%d samples read)", calls, len(got))
		}
		k, err := r.ReadBlock(block)
		got = append(got, block[:k]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			t.Fatal("ReadBlock returned (0, nil)")
		}
	}
	if len(got) != n {
		t.Fatalf("read %d samples, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != samples[i] {
			t.Fatalf("sample %d: %v, want %v", i, got[i], samples[i])
		}
	}
	if r.Samples() != n {
		t.Errorf("Samples() = %d, want %d", r.Samples(), n)
	}
}

func TestReaderCF32ShortFinalBlock(t *testing.T) {
	samples := make([]complex128, 40)
	var buf bytes.Buffer
	if err := WriteCF32(&buf, samples); err != nil {
		t.Fatal(err)
	}
	r := NewReaderCF32(&buf)
	block := make([]complex128, 64)
	k, err := r.ReadBlock(block)
	if k != 40 || err != nil {
		t.Fatalf("short final block: n=%d err=%v, want 40/nil", k, err)
	}
	if k, err = r.ReadBlock(block); k != 0 || err != io.EOF {
		t.Fatalf("after end: n=%d err=%v, want 0/io.EOF", k, err)
	}
}

func TestReaderCF32Truncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCF32(&buf, make([]complex128, 2)); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:12] // sample 1 cut mid-way
	r := NewReaderCF32(bytes.NewReader(trunc))
	block := make([]complex128, 8)
	k, err := r.ReadBlock(block)
	if k != 1 || err == nil || err == io.EOF {
		t.Fatalf("truncated stream: n=%d err=%v, want 1 sample and a hard error", k, err)
	}
}

func TestReaderCF32EmptyBuffer(t *testing.T) {
	r := NewReaderCF32(bytes.NewReader(nil))
	if _, err := r.ReadBlock(nil); err == nil {
		t.Fatal("accepted empty destination")
	}
}
