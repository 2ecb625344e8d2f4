package stream

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"hideseek/internal/lora"
	"hideseek/internal/phy"
	"hideseek/internal/zigbee"
)

// scanCalls counts the scanner-side receiver calls of every clone of one
// countingReceiver.
type scanCalls struct {
	syncs, spans atomic.Int64
}

// countingReceiver wraps a pipeline receiver and counts SynchronizeFirst
// and FrameSpan calls across all of its clones.
type countingReceiver struct {
	phy.Receiver
	n *scanCalls
}

func (c countingReceiver) Clone() phy.Receiver {
	return countingReceiver{Receiver: c.Receiver.Clone(), n: c.n}
}

func (c countingReceiver) SynchronizeFirst(w []complex128) (int, float64, error) {
	c.n.syncs.Add(1)
	return c.Receiver.SynchronizeFirst(w)
}

func (c countingReceiver) FrameSpan(w []complex128, start int) (int, error) {
	c.n.spans.Add(1)
	return c.Receiver.FrameSpan(w, start)
}

// TestScanSyncCalls pins how often the scanner synchronizes. FrameSpan
// runs exactly once per dispatched frame or rejected sync point, and
// SynchronizeFirst runs a fixed number of times per capture: the scanner
// waits for the samples a decision needs instead of re-running sync on
// every chunk, and never re-derives a committed decision.
func TestScanSyncCalls(t *testing.T) {
	zbFrame, err := zigbee.NewTransmitter().TransmitPSDU([]byte("calls"))
	if err != nil {
		t.Fatal(err)
	}
	zbCapture, err := BuildCapture(rand.New(rand.NewSource(47)), 1e-3, 700,
		zbFrame, corruptSFDFrame(t, []byte("calls")), zbFrame)
	if err != nil {
		t.Fatal(err)
	}
	loraFrame, err := lora.NewTransmitter().TransmitPayload([]byte("calls"))
	if err != nil {
		t.Fatal(err)
	}
	loraCapture, err := BuildCapture(rand.New(rand.NewSource(53)), 1e-3, 700,
		loraFrame, badHeaderLoRaFrame(t, []byte("calls")), loraFrame)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name        string
		pipe        *phy.Pipeline
		capture     []complex128
		chunk       int
		wantRejects int64
		wantSyncs   int64
	}{
		{"zigbee", zigbeePipeline(t), zbCapture, 256, 2, 16},
		{"lora", loraPipeline(t), loraCapture, 4096, 1, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := new(scanCalls)
			pipe := &phy.Pipeline{
				Protocol: tc.pipe.Protocol,
				Receiver: countingReceiver{Receiver: tc.pipe.Receiver, n: n},
				Detector: tc.pipe.Detector,
			}
			cfg := Config{Pipelines: []*phy.Pipeline{pipe}, ChunkSize: tc.chunk}
			stats, err := Process(context.Background(), cfg, NewSliceSource(tc.capture), nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Frames != 2 || stats.SyncRejects != tc.wantRejects {
				t.Fatalf("%d frames, %d sync rejects; want 2 and %d", stats.Frames, stats.SyncRejects, tc.wantRejects)
			}
			if got := n.spans.Load(); got != stats.Frames+stats.SyncRejects {
				t.Errorf("FrameSpan ran %d times for %d frames + %d sync rejects", got, stats.Frames, stats.SyncRejects)
			}
			if got := n.syncs.Load(); got != tc.wantSyncs {
				t.Errorf("SynchronizeFirst ran %d times over %d chunks, want %d", got, stats.Chunks, tc.wantSyncs)
			}
		})
	}
}
