package stream

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hideseek/internal/lora"
	"hideseek/internal/phy"
)

// badHeaderLoRaFrame modulates a LoRa frame whose header checksum symbol
// is wrong: the preamble synchronizes, FrameSpan rejects the header, and
// the scanner advances one sync reference past the sync point.
func badHeaderLoRaFrame(t *testing.T, payload []byte) []complex128 {
	t.Helper()
	wave, err := lora.NewTransmitter().TransmitPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	bad := (len(payload) ^ lora.HeaderChecksumMask) + 1
	copy(wave[(lora.PreambleSymbols+1)*lora.SymbolSamples:], lora.Upchirp(bad))
	return wave
}

// verdictDigest hashes every time-independent field of a session's
// verdicts and the chunk-free stats: latencies, trace IDs and calibration
// labels are left out, and so is Stats.Chunks, which counts reads rather
// than anything the scanner or the defense decides.
func verdictDigest(verdicts []Verdict, stats Stats) string {
	h := sha256.New()
	u64 := func(h hash.Hash, v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(h hash.Hash, s string) {
		u64(h, uint64(len(s)))
		h.Write([]byte(s))
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for _, v := range verdicts {
		u64(h, v.Seq)
		u64(h, uint64(v.Offset))
		str(h, string(v.PSDU))
		for _, f := range []float64{v.SyncPeak, v.C40Re, v.C40Im, v.C42, v.DistanceSquared} {
			u64(h, math.Float64bits(f))
		}
		u64(h, flag(v.Attack))
		str(h, v.Err)
		str(h, v.ErrStage)
		u64(h, flag(v.Dropped))
	}
	for _, n := range []int64{stats.Frames, stats.SyncRejects, stats.Samples} {
		u64(h, uint64(n))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestScanVerdictDigests pins the stream scanner's output bit for bit on
// one ZigBee and one LoRa multi-frame capture, each holding a sync point
// whose header fails to validate. Verdicts do not depend on the chunk
// size, so each PHY has one digest that every chunk size must reproduce;
// Stats.Chunks is checked on its own. A scan-path performance change must
// leave both digests as they are.
//
// The digests were recorded on amd64, where Go never fuses a multiply and
// an add; architectures whose compilers emit FMA produce different bits.
func TestScanVerdictDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded for amd64 float semantics")
	}
	zbAuth, zbEmu := testFrames(t, []byte("digest"))
	zbCapture, err := BuildCapture(rand.New(rand.NewSource(41)), 1e-3, 800,
		zbAuth, corruptSFDFrame(t, []byte("digest")), zbEmu, zbAuth)
	if err != nil {
		t.Fatal(err)
	}
	loraAuth, loraEmu := loraTestFrames(t, []byte("digest"))
	loraCapture, err := BuildCapture(rand.New(rand.NewSource(43)), 1e-3, 800,
		loraAuth, badHeaderLoRaFrame(t, []byte("digest")), loraEmu, loraAuth)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		pipe    *phy.Pipeline
		capture []complex128
		want    string
	}{
		{"zigbee", zigbeePipeline(t), zbCapture, "7248498d321ce3c4f76f423cd32b93bdfdfd7967532ebe836c4595b439ab3b5b"},
		{"lora", loraPipeline(t), loraCapture, "95aba440f2c91a5d0835f75facdfe364d8497976e2ed7206b79f8b6000efc34e"},
	}
	for _, tc := range cases {
		for _, chunk := range []int{256, 1024, 4096, 16384} {
			cfg := Config{Pipelines: []*phy.Pipeline{tc.pipe}, ChunkSize: chunk}
			var verdicts []Verdict
			stats, err := Process(context.Background(), cfg, NewSliceSource(tc.capture), func(v Verdict) {
				verdicts = append(verdicts, v)
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Frames != 3 || stats.SyncRejects < 1 {
				t.Fatalf("%s chunk %d: %d frames, %d sync rejects; want 3 frames and a rejected header",
					tc.name, chunk, stats.Frames, stats.SyncRejects)
			}
			if want := int64((len(tc.capture) + chunk - 1) / chunk); stats.Chunks != want {
				t.Errorf("%s chunk %d: %d chunks, want %d", tc.name, chunk, stats.Chunks, want)
			}
			if got := verdictDigest(verdicts, stats); got != tc.want {
				t.Errorf("%s chunk %d: digest %s, want %s", tc.name, chunk, got, tc.want)
			}
		}
	}
}
