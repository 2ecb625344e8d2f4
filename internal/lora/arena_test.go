package lora

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// inBacking reports whether p points into backing's underlying array
// (anywhere up to its capacity).
func inBacking[T any](p *T, backing []T) bool {
	full := backing[:cap(backing)]
	for i := range full {
		if &full[i] == p {
			return true
		}
	}
	return false
}

func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// receptionDiff returns the first field where got and want differ, bit
// for bit, or "" when they match.
func receptionDiff(got, want *Reception) string {
	switch {
	case string(got.Payload) != string(want.Payload) || (got.Payload == nil) != (want.Payload == nil):
		return "Payload"
	case got.StartSample != want.StartSample:
		return "StartSample"
	case math.Float64bits(got.SyncPeak) != math.Float64bits(want.SyncPeak):
		return "SyncPeak"
	case !slices.Equal(got.SymbolBins, want.SymbolBins):
		return "SymbolBins"
	case !sameFloatBits(got.Concentrations, want.Concentrations):
		return "Concentrations"
	case !sameFloatBits(got.WideConcentrations, want.WideConcentrations):
		return "WideConcentrations"
	case math.Float64bits(got.OffPeakRatio) != math.Float64bits(want.OffPeakRatio):
		return "OffPeakRatio"
	}
	return ""
}

// TestReceiveAllReceptionsOutliveArenaGrowth pins the frame arena's
// growth rule: every reception of one ReceiveAll stays valid after later
// frames of the same call grow the arena. Reception k of a full
// ReceiveAll must equal, bit for bit, a copy of the last reception of
// ReceiveAll(capture, k) — a call that ends before frame k+1 carves
// anything. Each frame carves a fixed header-plus-MaxPayload share of
// the symbol tracks, so the capture holds enough frames that each
// backing slice (bins, concentrations, payload bytes, reception slots)
// is replaced after the first frame was carved from it.
func TestReceiveAllReceptionsOutliveArenaGrowth(t *testing.T) {
	const frames = 16
	rng := rand.New(rand.NewSource(47))
	// Noise over the whole capture keeps every concentration below 1, so
	// one frame's tracks never equal another's by accident.
	var capture []complex128
	gap := func(n int) { capture = append(capture, make([]complex128, n)...) }
	tx := NewTransmitter()
	for f := 0; f < frames; f++ {
		payload := make([]byte, MaxPayload-f%3)
		for i := range payload {
			payload[i] = byte(rng.Intn(ChipsPerSymbol))
		}
		wave, err := tx.TransmitPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		gap(300 + 37*f)
		capture = append(capture, wave...)
	}
	gap(300)
	for i := range capture {
		capture[i] += complex(rng.NormFloat64()*0.05, rng.NormFloat64()*0.05)
	}

	proto, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Reception, frames)
	prefix := proto.Clone()
	for k := 1; k <= frames; k++ {
		recs, err := prefix.ReceiveAll(capture, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != k {
			t.Fatalf("ReceiveAll(capture, %d) returned %d receptions", k, len(recs))
		}
		want[k-1] = recs[k-1].Copy()
	}

	rx := proto.Clone() // fresh arena: every generation grows inside this call
	got, err := rx.ReceiveAll(capture, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != frames {
		t.Fatalf("ReceiveAll returned %d receptions, want %d", len(got), frames)
	}
	a := &rx.arena
	for name, grew := range map[string]bool{
		"ints":   !inBacking(&got[0].SymbolBins[0], a.i),
		"floats": !inBacking(&got[0].Concentrations[0], a.f64),
		"bytes":  !inBacking(&got[0].Payload[0], a.bytes),
		"slots":  !inBacking(got[0], a.slots),
	} {
		if !grew {
			t.Errorf("arena %s never grew after frame 0: the capture does not exercise growth", name)
		}
	}
	for k, rec := range got {
		if d := receptionDiff(rec, want[k]); d != "" {
			t.Errorf("frame %d: %s differs from the frame-limited ReceiveAll", k, d)
		}
	}
}
