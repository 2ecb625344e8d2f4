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
// verdicts and stats: latencies, trace IDs and calibration labels are
// left out, everything the scanner and the defense decide is in.
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
	for _, n := range []int64{stats.Frames, stats.SyncRejects, stats.Samples, stats.Chunks} {
		u64(h, uint64(n))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestScanVerdictDigests pins the stream scanner's output bit for bit on
// one ZigBee and one LoRa multi-frame capture, each holding a sync point
// whose header fails to validate, at every chunk size the parity suites
// use. The digests were recorded before the scanner stopped re-running
// sync on buffered frames; a scan-path performance change must leave
// every one of them as it is.
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
		want    map[int]string // by chunk size
	}{
		{"zigbee", zigbeePipeline(t), zbCapture, map[int]string{
			256:   "3049d0955d84675622a6998c686ec0092734887321292a7f68cc99fed6e5ae94",
			1024:  "438678a052f9af44d380d51e13b1669966590dbbbe0cf89eea21fd6a26b4c1cd",
			4096:  "32095ee7d738c1ef4b33a192f5f9a3068f590db8638ca606e87363ea73d80711",
			16384: "1a491f85e9fbc3d74dea6fef40ecb1166d2b1a4af5ab03fa937078a54e2e235b",
		}},
		{"lora", loraPipeline(t), loraCapture, map[int]string{
			256:   "d963b6738f7bc0997b17465a79a702417f27fde31adcc882cf3f1e0cd10776b3",
			1024:  "e33b6e2c358208fa8b6eb15d516b37f0fa6e0de62811c3a6463c57ea19918597",
			4096:  "06ca6b7e4dc9153613d96458da543ee1e7049fc15f91ea7c7888bd880f7f26d5",
			16384: "78ea82c2a86d5d179a1391bc9fa6524e7db798fc016463d980016240df9cb1a9",
		}},
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
			if got := verdictDigest(verdicts, stats); got != tc.want[chunk] {
				t.Errorf("%s chunk %d: digest %s, want %s", tc.name, chunk, got, tc.want[chunk])
			}
		}
	}
}
