package lora

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// Steady-state allocation guard for the CSS decode path (DESIGN.md §15):
// once the receiver's dechirp scratch and frame arena have warmed to the
// session's frame sizes, the post-synchronization decode must not
// allocate at all.
func TestDecodeAtZeroAllocs(t *testing.T) {
	tx := NewTransmitter()
	wave, err := tx.TransmitPayload([]byte("alloc-guard"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	capture := make([]complex128, 0, 400+len(wave)+400)
	noise := func(n int) {
		for i := 0; i < n; i++ {
			capture = append(capture, complex(rng.NormFloat64()*1e-3, rng.NormFloat64()*1e-3))
		}
	}
	noise(400)
	capture = append(capture, wave...)
	noise(400)

	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	start, peak, err := rx.SynchronizeFirst(capture)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // warm scratch + arena
		if _, err := rx.DecodeAt(capture, start, peak); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := rx.DecodeAt(capture, start, peak); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeAt allocates %v times per op, want 0", allocs)
	}

	allocs = testing.AllocsPerRun(20, func() {
		if _, err := rx.FrameSpan(capture, start); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("FrameSpan allocates %v times per op, want 0", allocs)
	}

	allocs = testing.AllocsPerRun(20, func() {
		if _, _, err := rx.SynchronizeFirst(capture); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SynchronizeFirst allocates %v times per op, want 0", allocs)
	}
}

// TestNoPreambleSentinel: sync on a waveform without a preamble fails
// with the ErrNoPreamble sentinel and allocates nothing, yet still
// reports the best peak, which Receive keeps in Reception.SyncPeak. A
// NaN waveform fails the same way.
func TestNoPreambleSentinel(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	noise := make([]complex128, 2*PreambleSamples)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, best, err := rx.SynchronizeFirst(noise)
	if !errors.Is(err, ErrNoPreamble) || !(best > 0) {
		t.Fatalf("SynchronizeFirst on noise: peak %v, err %v; want a positive peak and ErrNoPreamble", best, err)
	}
	rec, err := rx.Receive(noise)
	if !errors.Is(err, ErrNoPreamble) || rec.SyncPeak != best {
		t.Fatalf("Receive on noise: SyncPeak %v, err %v; want %v and ErrNoPreamble", rec.SyncPeak, err, best)
	}
	allocs := testing.AllocsPerRun(20, func() { rx.SynchronizeFirst(noise) })
	if allocs != 0 {
		t.Errorf("no-preamble sync allocates %v times per op, want 0", allocs)
	}
	nan := make([]complex128, len(noise))
	for i := range nan {
		nan[i] = complex(math.NaN(), math.NaN())
	}
	if _, _, err := rx.SynchronizeFirst(nan); !errors.Is(err, ErrNoPreamble) {
		t.Errorf("SynchronizeFirst on NaN: err %v, want ErrNoPreamble", err)
	}
}
