package stream

import (
	"math/rand"
	"testing"

	"hideseek/internal/zigbee"
)

// TestChunkBoundarySyncEveryOffset slides the capture across the chunk
// grid one sample at a time, so both frames (one authentic, one emulated)
// get split across a chunk boundary at every possible intra-chunk offset.
// Every alignment must reproduce the batch pipeline's verdicts exactly —
// the golden is recomputed per alignment from the same shifted capture.
func TestChunkBoundarySyncEveryOffset(t *testing.T) {
	const chunk = 96
	authentic, emulated := testFrames(t, []byte("hs"))
	capture, err := BuildCapture(rand.New(rand.NewSource(19)), 1e-3, 300, authentic, emulated)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	cfg.ChunkSize = chunk
	for off := 0; off < chunk; off++ {
		shifted := capture[off:] // moves every sample's chunk-grid position by −off
		want := batchVerdicts(t, shifted)
		if len(want) != 2 {
			t.Fatalf("offset %d: batch found %d frames, want 2", off, len(want))
		}
		got, _ := streamVerdicts(t, shifted, cfg)
		compareToBatch(t, got, want)
		if t.Failed() {
			t.Fatalf("verdicts diverged from batch at chunk offset %d", off)
		}
	}
}

// corruptSFDFrame modulates a frame whose SFD byte is wrong. The
// preamble still correlates above threshold (8 of the 10 SHR symbols
// match), so both pipelines synchronize on it, but its SHR content is
// invalid and no decodable frame exists at that sync point.
func corruptSFDFrame(t *testing.T, psdu []byte) []complex128 {
	t.Helper()
	ppdu, err := zigbee.BuildPPDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	ppdu[zigbee.PreambleBytes] ^= 0xFF // anything but the SFD
	chips, err := zigbee.Spread(zigbee.BytesToSymbols(ppdu))
	if err != nil {
		t.Fatal(err)
	}
	wave, err := zigbee.Modulate(chips)
	if err != nil {
		t.Fatal(err)
	}
	return wave
}

// TestBadSFDFrameMatchesBatch covers scan-offset parity on a frame the
// batch receiver rejects: ReceiveAll decodes it fully, fails the SFD
// check in ParsePPDU, and advances by one sync reference; the streaming
// scanner rejects the same sync point at FrameSpan (which validates the
// decoded preamble and SFD) and applies the identical advance. The
// surrounding good frames must therefore yield byte-identical verdicts
// at every chunk size.
func TestBadSFDFrameMatchesBatch(t *testing.T) {
	authentic, emulated := testFrames(t, []byte("sfd"))
	bad := corruptSFDFrame(t, []byte("sfd"))
	capture, err := BuildCapture(rand.New(rand.NewSource(29)), 1e-3, 700, authentic, bad, emulated)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	want := batchVerdicts(t, capture)
	if len(want) != 2 {
		t.Fatalf("batch found %d frames, want 2 (bad-SFD frame rejected)", len(want))
	}
	for _, chunk := range []int{256, 1024, 4096} {
		cfg := cfg
		cfg.ChunkSize = chunk
		got, stats := streamVerdicts(t, capture, cfg)
		compareToBatch(t, got, want)
		if t.Failed() {
			t.Fatalf("verdicts diverged from batch at chunk size %d", chunk)
		}
		if stats.SyncRejects < 1 {
			t.Errorf("chunk %d: SyncRejects = %d, want >= 1 (bad SFD rejected at scan time)",
				chunk, stats.SyncRejects)
		}
	}
}
