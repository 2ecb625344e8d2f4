package stream

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"hideseek/internal/emulation"
	"hideseek/internal/lora"
	"hideseek/internal/phy"
	"hideseek/internal/phy/loraphy"
	"hideseek/internal/phy/zigbeephy"
	"hideseek/internal/zigbee"
)

// loraPipeline builds the lora phy pipeline under test defaults.
func loraPipeline(tb testing.TB) *phy.Pipeline {
	tb.Helper()
	p, err := loraphy.NewPipeline(lora.ReceiverConfig{}, lora.DetectorConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// loraTestFrames builds one authentic LoRa frame and its Wi-Lo emulated
// counterpart.
func loraTestFrames(t *testing.T, payload []byte) (authentic, emulated []complex128) {
	t.Helper()
	authentic, err := lora.NewTransmitter().TransmitPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	em, err := emulation.NewEmulator(emulation.AttackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := em.Emulate(authentic)
	if err != nil {
		t.Fatal(err)
	}
	return authentic, res.Emulated4M
}

// loraRefVerdict is the lora batch golden.
type loraRefVerdict struct {
	offset  int
	payload string
	peak    float64
	d2      float64
	attack  bool
}

// loraBatchVerdicts runs the batch reference pipeline (lora.ReceiveAll +
// lora.Detector) over a capture.
func loraBatchVerdicts(t *testing.T, capture []complex128) []loraRefVerdict {
	t.Helper()
	rx, err := lora.NewReceiver(lora.ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	det, err := lora.NewDetector(lora.DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := rx.ReceiveAll(capture, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]loraRefVerdict, 0, len(recs))
	for _, rec := range recs {
		v, err := det.AnalyzeReception(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, loraRefVerdict{
			offset:  rec.StartSample,
			payload: string(rec.Payload),
			peak:    rec.SyncPeak,
			d2:      v.DistanceSquared,
			attack:  v.Attack,
		})
	}
	return out
}

// TestLoRaChunkSizesMatchBatch is the second-protocol instance of the
// headline parity check: streaming verdicts over a mixed
// authentic+emulated LoRa capture must be byte-identical to the batch
// pipeline's at every chunk size.
func TestLoRaChunkSizesMatchBatch(t *testing.T) {
	authentic, emulated := loraTestFrames(t, []byte("lora-stream"))
	capture, err := BuildCapture(rand.New(rand.NewSource(13)), 1e-3, 900, authentic, emulated, authentic)
	if err != nil {
		t.Fatal(err)
	}
	want := loraBatchVerdicts(t, capture)
	if len(want) != 3 {
		t.Fatalf("batch receiver found %d frames, want 3", len(want))
	}
	if want[0].attack || !want[1].attack || want[2].attack {
		t.Fatalf("batch verdicts [%v %v %v], want [false true false]",
			want[0].attack, want[1].attack, want[2].attack)
	}
	for _, chunk := range []int{256, 1024, 4096, 16384} {
		cfg := Config{Pipelines: []*phy.Pipeline{loraPipeline(t)}, ChunkSize: chunk}
		got, stats := streamVerdicts(t, capture, cfg)
		if len(got) != len(want) {
			t.Fatalf("chunk %d: stream found %d frames, batch %d", chunk, len(got), len(want))
		}
		for i, v := range got {
			w := want[i]
			if v.Dropped || v.Err != "" {
				t.Fatalf("chunk %d frame %d: dropped=%v err=%q", chunk, i, v.Dropped, v.Err)
			}
			if v.Proto != loraphy.Protocol {
				t.Errorf("chunk %d frame %d: proto %q, want %q", chunk, i, v.Proto, loraphy.Protocol)
			}
			if v.Offset != int64(w.offset) {
				t.Errorf("chunk %d frame %d: offset %d, batch %d", chunk, i, v.Offset, w.offset)
			}
			if string(v.PSDU) != w.payload {
				t.Errorf("chunk %d frame %d: payload %q, batch %q", chunk, i, v.PSDU, w.payload)
			}
			if v.SyncPeak != w.peak {
				t.Errorf("chunk %d frame %d: sync peak %v, batch %v", chunk, i, v.SyncPeak, w.peak)
			}
			if v.DistanceSquared != w.d2 {
				t.Errorf("chunk %d frame %d: D² %v, batch %v", chunk, i, v.DistanceSquared, w.d2)
			}
			if v.Attack != w.attack {
				t.Errorf("chunk %d frame %d: attack %v, batch %v", chunk, i, v.Attack, w.attack)
			}
		}
		if stats.Frames != 3 || stats.Dropped != 0 || stats.DecodeErrors != 0 {
			t.Errorf("chunk %d: stats %+v, want 3 clean frames", chunk, stats)
		}
	}
}

// TestLoRaChunkBoundaryEveryOffset slides a LoRa capture across the chunk
// grid so frames split at every intra-chunk offset; every alignment must
// match the batch goldens. The chunk is kept coprime-ish to the symbol
// size so symbol boundaries land everywhere in the chunk.
func TestLoRaChunkBoundaryEveryOffset(t *testing.T) {
	const chunk = 1000
	const stride = 37 // sampling the offsets keeps the test fast
	authentic, emulated := loraTestFrames(t, []byte("hs"))
	capture, err := BuildCapture(rand.New(rand.NewSource(23)), 1e-3, 1200, authentic, emulated)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < chunk; off += stride {
		shifted := capture[off:]
		want := loraBatchVerdicts(t, shifted)
		if len(want) != 2 {
			t.Fatalf("offset %d: batch found %d frames, want 2", off, len(want))
		}
		cfg := Config{Pipelines: []*phy.Pipeline{loraPipeline(t)}, ChunkSize: chunk}
		got, _ := streamVerdicts(t, shifted, cfg)
		if len(got) != 2 {
			t.Fatalf("offset %d: stream found %d frames, want 2", off, len(got))
		}
		for i, v := range got {
			w := want[i]
			if v.Offset != int64(w.offset) || string(v.PSDU) != w.payload || v.SyncPeak != w.peak ||
				v.DistanceSquared != w.d2 || v.Attack != w.attack {
				t.Fatalf("offset %d frame %d: verdict {off %d payload %q peak %v d2 %v attack %v}, batch {%d %q %v %v %v}",
					off, i, v.Offset, v.PSDU, v.SyncPeak, v.DistanceSquared, v.Attack,
					w.offset, w.payload, w.peak, w.d2, w.attack)
			}
		}
	}
}

// TestScanRetentionInvariant is the unit check behind the sliding
// window's memory bound, run against BOTH protocol sizings: on sync-free
// input the window retains exactly SyncRefSamples−1 samples (the maximum
// prefix a future correlation can still involve), and once a preamble is
// buffered the window holds the frame start until the frame dispatches.
func TestScanRetentionInvariant(t *testing.T) {
	zb, err := zigbeephy.NewPipeline(zigbee.ReceiverConfig{}, emulation.DefenseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	zbFrame, err := zigbee.NewTransmitter().TransmitPSDU([]byte("retention"))
	if err != nil {
		t.Fatal(err)
	}
	loraFrame, err := lora.NewTransmitter().TransmitPayload([]byte("retention"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		proto string
		pipe  *phy.Pipeline
		frame []complex128
	}{
		{zigbeephy.Protocol, zb, zbFrame},
		{loraphy.Protocol, loraPipeline(t), loraFrame},
	}
	for _, tc := range cases {
		t.Run(tc.proto, func(t *testing.T) {
			e, err := NewEngine(Config{Pipelines: []*phy.Pipeline{tc.pipe}})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			var (
				mu       sync.Mutex
				verdicts []Verdict
			)
			s := newSession(e, e.shards[0], e.pipes[0], func(v Verdict) {
				mu.Lock()
				verdicts = append(verdicts, v)
				mu.Unlock()
			}, sessionOpts{}, nil)
			refLen := s.refLen
			rng := rand.New(rand.NewSource(int64(refLen)))
			noise := func(n int) []complex128 {
				out := make([]complex128, n)
				for i := range out {
					out[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-3
				}
				return out
			}
			// Phase 1: sync-free input in awkward chunk sizes. The window
			// must never retain a full reference length.
			for i := 0; i < 40; i++ {
				s.win.append(noise(777))
				s.scan(false)
				if s.win.size() >= refLen {
					t.Fatalf("after noise chunk %d: window holds %d ≥ refLen %d", i, s.win.size(), refLen)
				}
			}
			// Phase 2: a frame arrives split into thirds. Until it
			// dispatches, the window may not discard past the frame start.
			frameStart := s.win.offset() + int64(s.win.size())
			third := len(tc.frame) / 3
			for _, part := range [][]complex128{tc.frame[:third], tc.frame[third : 2*third], tc.frame[2*third:]} {
				s.win.append(part)
				s.scan(false)
				if s.stats.Frames == 0 && s.win.offset() > frameStart {
					t.Fatalf("window discarded to %d past undispatched frame start %d", s.win.offset(), frameStart)
				}
			}
			// Tail padding lets the scanner commit (decode tail + sync
			// refinement span), then EOF flushes the rest.
			s.win.append(noise(2*refLen + s.tail))
			s.scan(false)
			s.scan(true)
			s.drain()
			if s.stats.Frames != 1 {
				t.Fatalf("scanner found %d frames, want 1", s.stats.Frames)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(verdicts) != 1 || verdicts[0].Err != "" || verdicts[0].Offset != frameStart {
				t.Fatalf("verdicts %+v, want one clean frame at %d", verdicts, frameStart)
			}
			if s.win.size() >= refLen {
				t.Errorf("after EOF: window holds %d samples", s.win.size())
			}
		})
	}
}

// TestDuplicateProtocolRejected: serving the same protocol twice is a
// configuration error (the second registration would be unreachable).
func TestDuplicateProtocolRejected(t *testing.T) {
	p := loraPipeline(t)
	if e, err := NewEngine(Config{Pipelines: []*phy.Pipeline{p, loraPipeline(t)}}); err == nil {
		e.Close()
		t.Fatal("duplicate protocol accepted")
	}
	_ = p
}

// TestUnknownProtocolRejected: a session for an unserved protocol fails
// up front rather than silently falling back to the default.
func TestUnknownProtocolRejected(t *testing.T) {
	e, err := NewEngine(Config{Pipelines: []*phy.Pipeline{loraPipeline(t)}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Process(context.Background(), NewSliceSource(make([]complex128, 10)), nil, WithProto("zigbee")); err == nil {
		t.Fatal("unserved protocol accepted")
	}
}

// TestConcurrentProtocolsOneEngine runs a zigbee session and a lora
// session concurrently on ONE engine (shared worker pool) and checks each
// stream's verdicts are gapless, in order, correctly labeled, and decode
// the right payloads. Run under -race this also proves pipeline state is
// properly cloned per session.
func TestConcurrentProtocolsOneEngine(t *testing.T) {
	zb, err := zigbeephy.NewPipeline(zigbee.ReceiverConfig{SyncThreshold: 0.3}, emulation.DefenseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{Pipelines: []*phy.Pipeline{zb, loraPipeline(t)}, ChunkSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := e.Protocols(); len(got) != 2 || got[0] != "zigbee" || got[1] != "lora" {
		t.Fatalf("Protocols() = %v, want [zigbee lora]", got)
	}

	zbAuth, zbEmu := testFrames(t, []byte("zb-concurrent"))
	zbCapture, err := BuildCapture(rand.New(rand.NewSource(31)), 1e-3, 500, zbAuth, zbEmu)
	if err != nil {
		t.Fatal(err)
	}
	loraAuth, loraEmu := loraTestFrames(t, []byte("lora-concurrent"))
	loraCapture, err := BuildCapture(rand.New(rand.NewSource(37)), 1e-3, 500, loraAuth, loraEmu)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		verdicts []Verdict
		stats    Stats
		err      error
	}
	run := func(proto string, capture []complex128) result {
		var r result
		r.stats, r.err = e.Process(context.Background(), NewSliceSource(capture), func(v Verdict) {
			r.verdicts = append(r.verdicts, v)
		}, WithProto(proto))
		return r
	}
	var wg sync.WaitGroup
	results := make([]result, 2)
	wg.Add(2)
	go func() { defer wg.Done(); results[0] = run("zigbee", zbCapture) }()
	go func() { defer wg.Done(); results[1] = run("lora", loraCapture) }()
	wg.Wait()

	check := func(r result, proto, payload string) {
		t.Helper()
		if r.err != nil {
			t.Fatalf("%s session: %v", proto, r.err)
		}
		if len(r.verdicts) != 2 {
			t.Fatalf("%s session: %d verdicts, want 2", proto, len(r.verdicts))
		}
		for i, v := range r.verdicts {
			if v.Seq != uint64(i) {
				t.Errorf("%s verdict %d: seq %d (gap or reorder)", proto, i, v.Seq)
			}
			if v.Proto != proto {
				t.Errorf("%s verdict %d: labeled %q", proto, i, v.Proto)
			}
			if v.Err != "" || v.Dropped {
				t.Errorf("%s verdict %d: err=%q dropped=%v", proto, i, v.Err, v.Dropped)
			}
			if string(v.PSDU) != payload {
				t.Errorf("%s verdict %d: payload %q, want %q", proto, i, v.PSDU, payload)
			}
		}
		if r.verdicts[0].Attack || !r.verdicts[1].Attack {
			t.Errorf("%s verdicts attack [%v %v], want [false true]",
				proto, r.verdicts[0].Attack, r.verdicts[1].Attack)
		}
	}
	check(results[0], "zigbee", "zb-concurrent")
	check(results[1], "lora", "lora-concurrent")
}
