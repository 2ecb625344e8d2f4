package zigbee

import (
	"fmt"
	"math"
	"math/rand"
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

// inSlots reports whether rec is the Reception of one of slots' array
// entries (anywhere up to its capacity).
func inSlots(rec *Reception, slots []frameSlot) bool {
	full := slots[:cap(slots)]
	for i := range full {
		if &full[i].rec == rec {
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
	case string(got.PSDU) != string(want.PSDU) || (got.PSDU == nil) != (want.PSDU == nil):
		return "PSDU"
	case got.StartSample != want.StartSample:
		return "StartSample"
	case math.Float64bits(got.SyncPeak) != math.Float64bits(want.SyncPeak):
		return "SyncPeak"
	case math.Float64bits(got.PhaseEstimate) != math.Float64bits(want.PhaseEstimate):
		return "PhaseEstimate"
	case math.Float64bits(got.NoisePowerEstimate) != math.Float64bits(want.NoisePowerEstimate):
		return "NoisePowerEstimate"
	case math.Float64bits(got.SNREstimateDB) != math.Float64bits(want.SNREstimateDB):
		return "SNREstimateDB"
	case !sameFloatBits(got.SoftChips, want.SoftChips):
		return "SoftChips"
	case !sameFloatBits(got.PeakChips, want.PeakChips):
		return "PeakChips"
	case (got.RecoveredChips == nil) != (want.RecoveredChips == nil):
		return "RecoveredChips"
	case got.RecoveredChips != nil && !sameFloatBits(got.RecoveredChips.Soft, want.RecoveredChips.Soft):
		return "RecoveredChips.Soft"
	case got.RecoveredChips != nil && !sameFloatBits(got.RecoveredChips.Timing, want.RecoveredChips.Timing):
		return "RecoveredChips.Timing"
	case !sameFloatBits(got.DiscriminatorChips, want.DiscriminatorChips):
		return "DiscriminatorChips"
	case fmt.Sprint(got.Results) != fmt.Sprint(want.Results):
		return "Results"
	case got.SymbolErrors != want.SymbolErrors:
		return "SymbolErrors"
	}
	return ""
}

// TestReceiveAllReceptionsOutliveArenaGrowth pins the frame arena's
// growth rule: every reception of one ReceiveAll stays valid after later
// frames of the same call grow the arena. Reception k of a full
// ReceiveAll must equal, bit for bit, a copy of the last reception of
// ReceiveAll(capture, k) — a call that ends before frame k+1 carves
// anything. The capture holds enough long frames that each backing slice
// (chip streams, despread results, bytes, reception slots) is replaced
// after the first frame was carved from it.
func TestReceiveAllReceptionsOutliveArenaGrowth(t *testing.T) {
	const frames = 10
	rng := rand.New(rand.NewSource(43))
	var capture []complex128
	noise := func(n int) {
		for i := 0; i < n; i++ {
			capture = append(capture, complex(rng.NormFloat64()*1e-3, rng.NormFloat64()*1e-3))
		}
	}
	tx := NewTransmitter()
	for f := 0; f < frames; f++ {
		psdu := make([]byte, 100+f)
		for i := range psdu {
			psdu[i] = byte(rng.Intn(256))
		}
		wave, err := tx.TransmitPSDU(psdu)
		if err != nil {
			t.Fatal(err)
		}
		noise(300 + 37*f)
		capture = append(capture, wave...)
	}
	noise(300)

	proto, err := NewReceiver(ReceiverConfig{SyncThreshold: 0.3})
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
		"chip floats": !inBacking(&got[0].SoftChips[0], a.f64),
		"results":     !inBacking(&got[0].Results[0], a.res),
		"bytes":       !inBacking(&got[0].PSDU[0], a.bytes),
		"slots":       !inSlots(got[0], a.slots),
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
