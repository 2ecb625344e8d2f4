package main

import (
	"encoding/json"
	"slices"
	"testing"

	"hideseek/internal/emulation"
	"hideseek/internal/stream"
)

// testBlock is a three-frame reference block.
func testBlock() blockRef {
	ref := blockRef{blockLen: 10_000}
	for i := range 3 {
		psdu := []byte{byte(i), 0xAB, 0xCD}
		ref.verdicts = append(ref.verdicts, stream.Verdict{
			Seq: uint64(i), Proto: "zigbee", Offset: int64(1000 + 3000*i), PSDU: psdu,
			DistanceSquared: 0.1 + float64(i), Attack: i == 1,
		})
		ref.labels = append(ref.labels, frameLabel{Offset: 1000 + 3000*i, Payload: psdu, Emulated: i == 1})
	}
	return ref
}

// daemonLines renders what a correct daemon streams for blocks blocks.
func daemonLines(t *testing.T, ref blockRef, blocks int) [][]byte {
	t.Helper()
	var lines [][]byte
	for i := range blocks * len(ref.verdicts) {
		v, _ := ref.expect(i)
		lines = append(lines, mustJSON(t, v))
	}
	return append(lines, mustJSON(t, map[string]any{"stats": stream.Stats{Frames: int64(len(lines))}}))
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// corruptVerdict rewrites line i through a change to its verdict.
func corruptVerdict(t *testing.T, lines [][]byte, i int, change func(*stream.Verdict)) [][]byte {
	t.Helper()
	var v stream.Verdict
	if err := json.Unmarshal(lines[i], &v); err != nil {
		t.Fatal(err)
	}
	change(&v)
	out := slices.Clone(lines)
	out[i] = mustJSON(t, v)
	return out
}

// TestCheckerCountsEveryCorruption corrupts one verdict each way and
// requires the checker to count it and the run to fail.
func TestCheckerCountsEveryCorruption(t *testing.T) {
	ref := testBlock()
	clean := daemonLines(t, ref, 2)
	if got, _ := checkStreamLines(clean, ref, 2); !got.ok() || got.attempted != 6 {
		t.Fatalf("clean session: %d attempted, %d failed (%s)", got.attempted, got.failed, got.reasonList())
	}
	extra := mustJSON(t, stream.Verdict{Seq: 6, Offset: 21_000, PSDU: []byte{9}})
	cases := map[string][][]byte{
		"flip attack":      corruptVerdict(t, clean, 1, func(v *stream.Verdict) { v.Attack = !v.Attack }),
		"change PSDU byte": corruptVerdict(t, clean, 4, func(v *stream.Verdict) { v.PSDU[0] ^= 1 }),
		"nudge D2":         corruptVerdict(t, clean, 2, func(v *stream.Verdict) { v.DistanceSquared += 1e-12 }),
		"set Err":          corruptVerdict(t, clean, 0, func(v *stream.Verdict) { v.Err = "despread failed" }),
		"mark dropped":     corruptVerdict(t, clean, 3, func(v *stream.Verdict) { v.Dropped = true }),
		"drop a line":      slices.Delete(slices.Clone(clean), 2, 3),
		"add a line":       slices.Insert(slices.Clone(clean), 6, extra),
		"lose the trailer": clean[:len(clean)-1],
	}
	for name, lines := range cases {
		got, _ := checkStreamLines(lines, ref, 2)
		if got.failed == 0 || got.ok() || got.errorRate() == 0 {
			t.Errorf("%s: checker passed it (%d attempted, %d failed)", name, got.attempted, got.failed)
		}
	}
}

// TestClassifyCheckerRejectsBadResponses covers the /v1/classify path:
// a non-200 answer and a changed verdict both fail.
func TestClassifyCheckerRejectsBadResponses(t *testing.T) {
	ref := testBlock()
	body := mustJSON(t, classifyResponse{Verdicts: ref.verdicts})
	if got, _ := checkClassify(200, body, ref.verdicts, ref.labels); !got.ok() {
		t.Fatalf("clean response failed: %s", got.reasonList())
	}
	if got, _ := checkClassify(503, body, ref.verdicts, ref.labels); got.ok() || got.failed != 3 {
		t.Errorf("503: %d failed, want 3", got.failed)
	}
	bad := slices.Clone(ref.verdicts)
	bad[2].Offset++
	if got, _ := checkClassify(200, mustJSON(t, classifyResponse{Verdicts: bad}), ref.verdicts, ref.labels); got.ok() {
		t.Error("shifted offset passed")
	}
}

// TestForgedWaveformCheck forges a short ZigBee frame: the forgery must
// decode to its payload on the victim receiver and a corrupted copy must
// not.
func TestForgedWaveformCheck(t *testing.T) {
	em, err := emulation.NewEmulator(emulation.AttackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	in := attackInput{Proto: "zigbee", Payload: []byte("hs-bench")}
	res, err := forge(em, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyForged(in, res.Emulated4M); err != nil {
		t.Fatalf("clean forgery: %v", err)
	}
	corrupt := slices.Clone(res.Emulated4M)
	for i := len(corrupt) / 2; i < len(corrupt); i++ {
		corrupt[i] = -corrupt[i]
	}
	if err := verifyForged(in, corrupt); err == nil {
		t.Error("corrupted forgery still decodes to its payload")
	}
	var tl tally
	tl.attempted = 2
	if verifyForged(in, corrupt) != nil {
		tl.fail("forgery-undecodable")
	}
	if tl.ok() || tl.errorRate() != 0.5 {
		t.Errorf("one bad forgery of two: ok=%v error rate %v", tl.ok(), tl.errorRate())
	}
}
