package zigbee

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// Steady-state allocation guards for the decode path (DESIGN.md §15):
// once the receiver's scratch and frame arena have warmed to the
// session's frame sizes, neither the post-synchronization decode nor a
// whole-capture ReceiveAll may allocate at all.

// allocCapture builds a decodable single-frame capture and returns it
// with the frame's start and sync peak.
func allocCapture(t *testing.T) (capture []complex128, start int, peak float64, rx *Receiver, span int) {
	t.Helper()
	capture, _ = scanCapture(t, []byte("alloc-guard"), 600, 900)
	rx, err := NewReceiver(ReceiverConfig{SyncThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	start, peak, err = rx.SynchronizeFirst(capture)
	if err != nil {
		t.Fatal(err)
	}
	span, err = rx.FrameSpan(capture, start)
	if err != nil {
		t.Fatal(err)
	}
	return capture, start, peak, rx, span
}

func TestDecodeAtZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		mode DespreadMode
		name string
	}{
		{HardThreshold, "hard"}, {SoftCorrelation, "soft"}, {FMDiscriminator, "fm"},
	} {
		capture, _ := scanCapture(t, []byte("alloc-guard"), 600, 900)
		rx, err := NewReceiver(ReceiverConfig{SyncThreshold: 0.3, Mode: tc.mode})
		if err != nil {
			t.Fatal(err)
		}
		start, peak, err := rx.SynchronizeFirst(capture)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ { // warm scratch + arena
			if _, err := rx.DecodeAt(capture, start, peak); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := rx.DecodeAt(capture, start, peak); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: DecodeAt allocates %v times per op, want 0", tc.name, allocs)
		}
	}
}

func TestFrameSpanZeroAllocs(t *testing.T) {
	capture, start, _, rx, _ := allocCapture(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := rx.FrameSpan(capture, start); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("FrameSpan allocates %v times per op, want 0", allocs)
	}
}

func TestSynchronizeFirstZeroAllocs(t *testing.T) {
	capture, _, _, rx, _ := allocCapture(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := rx.SynchronizeFirst(capture); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SynchronizeFirst allocates %v times per op, want 0", allocs)
	}
}

// TestReceiveAllAllocBudget bounds the whole-capture batch path at zero:
// even its terminal "no preamble in the remainder" return is the
// ErrNoPreamble sentinel, so nothing allocates once scratch is warm.
func TestReceiveAllAllocBudget(t *testing.T) {
	// Multi-frame capture: three frames with noise gaps.
	tx := NewTransmitter()
	wave, err := tx.TransmitPSDU([]byte("alloc-batch"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	var capture []complex128
	noise := func(n int) {
		for i := 0; i < n; i++ {
			capture = append(capture, complex(rng.NormFloat64()*1e-3, rng.NormFloat64()*1e-3))
		}
	}
	noise(500)
	for i := 0; i < 3; i++ {
		capture = append(capture, wave...)
		noise(400 + 73*i)
	}
	rx, err := NewReceiver(ReceiverConfig{SyncThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // warm scratch + arena
		recs, err := rx.ReceiveAll(capture, 0)
		if err != nil || len(recs) != 3 {
			t.Fatalf("warmup: %d frames, err %v", len(recs), err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if recs, err := rx.ReceiveAll(capture, 0); err != nil || len(recs) != 3 {
			t.Fatal("decode changed under measurement")
		}
	})
	if allocs != 0 {
		t.Errorf("ReceiveAll allocates %v times per op, want 0", allocs)
	}
}

// TestNoPreambleSentinel: sync on a waveform without a preamble fails
// with the ErrNoPreamble sentinel and allocates nothing, yet still
// reports the best peak, which Receive keeps in Reception.SyncPeak. A
// NaN waveform fails the same way.
func TestNoPreambleSentinel(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	noise := make([]complex128, 4000)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, first, err := rx.SynchronizeFirst(noise)
	if !errors.Is(err, ErrNoPreamble) || !(first > 0) {
		t.Fatalf("SynchronizeFirst on noise: peak %v, err %v; want a positive peak and ErrNoPreamble", first, err)
	}
	rec, err := rx.Receive(noise)
	if !errors.Is(err, ErrNoPreamble) || rec.SyncPeak != first {
		t.Fatalf("Receive on noise: SyncPeak %v, err %v; want %v and ErrNoPreamble", rec.SyncPeak, err, first)
	}
	allocs := testing.AllocsPerRun(20, func() {
		rx.SynchronizeFirst(noise)
	})
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
	if rec, err := rx.Receive(nan); !errors.Is(err, ErrNoPreamble) || rec.SyncPeak != 0 {
		t.Errorf("Receive on NaN: SyncPeak %v, err %v; want 0 and ErrNoPreamble", rec.SyncPeak, err)
	}
}
