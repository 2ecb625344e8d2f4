package zigbee

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestReceiveAllFindsEveryFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(901))
	tx := NewTransmitter()
	var capture []complex128
	var wants []string
	gap := func(n int) {
		for i := 0; i < n; i++ {
			capture = append(capture, complex(rng.NormFloat64()*0.01, rng.NormFloat64()*0.01))
		}
	}
	gap(200)
	for i := 0; i < 4; i++ {
		payload := fmt.Sprintf("cmd%02d", i)
		wants = append(wants, payload)
		wave, err := tx.TransmitPSDU([]byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		capture = append(capture, wave...)
		gap(150 + i*37)
	}

	rx, err := NewReceiver(ReceiverConfig{SyncThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := rx.ReceiveAll(capture, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(wants) {
		t.Fatalf("found %d frames, want %d", len(recs), len(wants))
	}
	prevStart := -1
	for i, rec := range recs {
		if string(rec.PSDU) != wants[i] {
			t.Errorf("frame %d = %q, want %q", i, rec.PSDU, wants[i])
		}
		if rec.StartSample <= prevStart {
			t.Errorf("frame %d start %d not increasing", i, rec.StartSample)
		}
		prevStart = rec.StartSample
	}
}

func TestReceiveAllRespectsLimit(t *testing.T) {
	tx := NewTransmitter()
	wave, err := tx.TransmitPSDU([]byte("xx"))
	if err != nil {
		t.Fatal(err)
	}
	capture := append(append([]complex128{}, wave...), wave...)
	rx, err := NewReceiver(ReceiverConfig{SyncThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := rx.ReceiveAll(capture, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Errorf("limit ignored: %d frames", len(recs))
	}
}

func TestReceiveAllEmptyAndNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(902))
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := rx.ReceiveAll(nil, 0)
	if err != nil || len(recs) != 0 {
		t.Errorf("empty capture: %d frames, %v", len(recs), err)
	}
	noise := make([]complex128, 3000)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	recs, err = rx.ReceiveAll(noise, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("noise yielded %d frames", len(recs))
	}
}

// TestReceiveReturnsEarliestFrame pins that Receive runs the one
// first-crossing search: on a capture whose later frame correlates
// better, it decodes the earlier frame, at the start and sync peak bits
// of ReceiveAll's first frame.
func TestReceiveReturnsEarliestFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	tx := NewTransmitter()
	first, err := tx.TransmitPSDU([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	second, err := tx.TransmitPSDU([]byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	capture := make([]complex128, 300)
	capture = append(capture, addAWGN(rng, first, 0.4)...)
	capture = append(capture, make([]complex128, 2210-len(capture))...)
	capture = append(capture, second...)
	capture = append(capture, make([]complex128, 300)...)

	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rx.Receive(capture)
	if err != nil {
		t.Fatal(err)
	}
	all, err := rx.ReceiveAll(capture, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || !(all[1].SyncPeak > all[0].SyncPeak) {
		t.Fatalf("ReceiveAll found %d frames; want two, the later one stronger", len(all))
	}
	if string(rec.PSDU) != "first" || rec.StartSample != all[0].StartSample ||
		math.Float64bits(rec.SyncPeak) != math.Float64bits(all[0].SyncPeak) {
		t.Errorf("Receive = (%d, %v, %q), want ReceiveAll's first frame (%d, %v, %q)",
			rec.StartSample, rec.SyncPeak, rec.PSDU, all[0].StartSample, all[0].SyncPeak, all[0].PSDU)
	}
}
