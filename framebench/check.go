package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"hideseek/internal/lora"
	"hideseek/internal/phy"
	"hideseek/internal/stream"
	"hideseek/internal/zigbee"
)

// offsetTolerance is how far a verdict's sync offset may sit from the
// sample where the generator placed the frame: one ZigBee symbol. The
// reference comparison is exact; this only ties the reference to the
// ground truth.
const offsetTolerance = zigbee.SamplesPerSymbol

// tally counts a workload's operations and failures.
type tally struct {
	attempted, failed int
	// decided frames and those whose attack flag disagrees with the
	// ground-truth label.
	decided, detectErrors int
	reasons               map[string]int
}

func (t *tally) fail(reason string) {
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.decided += o.decided
	t.detectErrors += o.detectErrors
	for r, n := range o.reasons {
		if t.reasons == nil {
			t.reasons = map[string]int{}
		}
		t.reasons[r] += n
	}
}

func (t tally) errorRate() float64 { return ratio(t.failed, t.attempted) }

// ok is the run's verdict on itself: something was checked and nothing
// failed. The command exits non-zero otherwise.
func (t tally) ok() bool { return t.failed == 0 && t.attempted > 0 }

func (t tally) detectErrorRate() float64 { return ratio(t.detectErrors, t.decided) }

func (t tally) reasonList() string {
	if len(t.reasons) == 0 {
		return "none"
	}
	var out []string
	for r, n := range t.reasons {
		out = append(out, fmt.Sprintf("%s=%d", r, n))
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// expectation is what the i-th verdict of a session must be: the
// reference verdict (offset and seq already placed in the session) and
// the frame's ground-truth label.
type expectation func(i int) (stream.Verdict, frameLabel)

// compare checks a session's verdicts against n expected frames. A
// missing or extra verdict, a dropped or errored one, and any difference
// from the reference in seq, offset, payload, D² bits or attack flag fail
// the frame.
func (t *tally) compare(got []stream.Verdict, n int, expect expectation) {
	t.attempted += max(n, len(got))
	for i := len(got); i < n; i++ {
		t.fail("missing")
	}
	for i, v := range got {
		if i >= n {
			t.fail("extra")
			continue
		}
		want, label := expect(i)
		if reason := mismatch(v, want); reason != "" {
			t.fail(reason)
			continue
		}
		t.decided++
		if v.Attack != label.Emulated {
			t.detectErrors++
		}
	}
}

// mismatch names the first way v differs from the reference, or "".
func mismatch(v, want stream.Verdict) string {
	switch {
	case v.Dropped:
		return "dropped"
	case v.Err != "":
		return "err"
	case v.Seq != want.Seq:
		return "seq"
	case v.Offset != want.Offset:
		return "offset"
	case !bytes.Equal(v.PSDU, want.PSDU):
		return "psdu"
	case math.Float64bits(v.DistanceSquared) != math.Float64bits(want.DistanceSquared):
		return "d2"
	case v.Attack != want.Attack:
		return "attack"
	}
	return ""
}

// reference runs the untimed in-process pipeline over samples exactly as
// the daemon builds it, and returns its verdicts.
func reference(p *phy.Pipeline, samples []complex128) ([]stream.Verdict, error) {
	var out []stream.Verdict
	_, err := stream.Process(context.Background(), stream.Config{Pipelines: []*phy.Pipeline{p}, Workers: 1},
		stream.NewSliceSource(samples), func(v stream.Verdict) { out = append(out, v) })
	return out, err
}

// matchesLabels checks that a reference found exactly the labelled frames
// and decoded each one's payload.
func matchesLabels(ref []stream.Verdict, labels []frameLabel) error {
	if len(ref) != len(labels) {
		return fmt.Errorf("reference found %d frames, ground truth has %d", len(ref), len(labels))
	}
	for i, v := range ref {
		l := labels[i]
		switch {
		case !v.Decided():
			return fmt.Errorf("reference frame %d undecided: %s", i, v.Err)
		case !bytes.Equal(v.PSDU, l.Payload):
			return fmt.Errorf("reference frame %d payload %x, ground truth %x", i, v.PSDU, l.Payload)
		case math.Abs(float64(v.Offset)-float64(l.Offset)) > offsetTolerance:
			return fmt.Errorf("reference frame %d at %d, ground truth %d", i, v.Offset, l.Offset)
		}
	}
	return nil
}

// blockRef is the reference for a stream of repeated zigbee-stream
// blocks. The scan is data-local and every block opens with a noise gap
// longer than the sync reference, so block k's verdicts are block 0's
// shifted by k blocks; blockReference proves that on two blocks.
type blockRef struct {
	verdicts []stream.Verdict
	labels   []frameLabel
	blockLen int64
}

func blockReference(p *phy.Pipeline, block capture) (blockRef, error) {
	two := append(append([]complex128(nil), block.Samples...), block.Samples...)
	ref, err := reference(p, two)
	if err != nil {
		return blockRef{}, err
	}
	f := len(block.Frames)
	if len(ref) != 2*f {
		return blockRef{}, fmt.Errorf("reference over two blocks found %d frames, want %d", len(ref), 2*f)
	}
	br := blockRef{verdicts: ref[:f], labels: block.Frames, blockLen: int64(len(block.Samples))}
	for i := range f {
		want, _ := br.expect(f + i)
		if reason := mismatch(ref[f+i], want); reason != "" {
			return blockRef{}, fmt.Errorf("second block frame %d differs from the first (%s)", i, reason)
		}
	}
	return br, matchesLabels(br.verdicts, br.labels)
}

// expect is the i-th verdict of a session streaming whole blocks.
func (b blockRef) expect(i int) (stream.Verdict, frameLabel) {
	f := len(b.verdicts)
	v := b.verdicts[i%f]
	v.Seq = uint64(i)
	v.Offset += int64(i/f) * b.blockLen
	return v, b.labels[i%f]
}

// ndjsonRecord is one /v1/stream response line: a verdict, or the stats
// trailer that ends the session.
type ndjsonRecord struct {
	stream.Verdict
	Stats *stream.Stats `json:"stats"`
	Error string        `json:"error"`
}

// checkStreamLines decodes one /v1/stream session's NDJSON lines and
// checks them against blocks whole blocks of the reference. The session
// must end with an error-free stats trailer.
func checkStreamLines(lines [][]byte, ref blockRef, blocks int) (tally, []stream.Verdict) {
	var t tally
	var got []stream.Verdict
	trailer := false
	for _, line := range lines {
		var r ndjsonRecord
		if err := json.Unmarshal(line, &r); err != nil {
			t.attempted++
			t.fail("bad-json")
			continue
		}
		if r.Stats != nil {
			trailer = true
			if r.Error != "" {
				t.attempted++
				t.fail("session-error")
			}
			continue
		}
		got = append(got, r.Verdict)
	}
	if !trailer {
		t.attempted++
		t.fail("no-trailer")
	}
	t.compare(got, blocks*len(ref.verdicts), ref.expect)
	return t, got
}

// classifyResponse is the /v1/classify reply.
type classifyResponse struct {
	Verdicts []stream.Verdict `json:"verdicts"`
	Stats    stream.Stats     `json:"stats"`
}

// checkClassify checks one /v1/classify response against its capture's
// reference.
func checkClassify(status int, body []byte, ref []stream.Verdict, labels []frameLabel) (tally, []stream.Verdict) {
	var t tally
	if status != 200 {
		t.attempted += len(labels)
		for range labels {
			t.fail(fmt.Sprintf("http-%d", status))
		}
		return t, nil
	}
	var r classifyResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.attempted += len(labels)
		for range labels {
			t.fail("bad-json")
		}
		return t, nil
	}
	t.compare(r.Verdicts, len(ref), func(i int) (stream.Verdict, frameLabel) { return ref[i], labels[i] })
	return t, r.Verdicts
}

// verifyForged checks that a forged waveform decodes to its payload on
// the unmodified victim receiver, framed by a faint noise floor.
func verifyForged(in attackInput, wave []complex128) error {
	capture, err := stream.BuildCapture(rand.New(rand.NewSource(1)), 1e-3, 500, wave)
	if err != nil {
		return err
	}
	var got []byte
	switch in.Proto {
	case "zigbee":
		rx, err := zigbee.NewReceiver(zigbee.ReceiverConfig{})
		if err != nil {
			return err
		}
		rec, err := rx.Receive(capture)
		if err != nil {
			return fmt.Errorf("zigbee receiver: %w", err)
		}
		got = rec.PSDU
	case "lora":
		rx, err := lora.NewReceiver(lora.ReceiverConfig{})
		if err != nil {
			return err
		}
		rec, err := rx.Receive(capture)
		if err != nil {
			return fmt.Errorf("lora receiver: %w", err)
		}
		got = rec.Payload
	default:
		return fmt.Errorf("unknown victim %q", in.Proto)
	}
	if !bytes.Equal(got, in.Payload) {
		return fmt.Errorf("%s forgery decodes to %x, want %x", in.Proto, got, in.Payload)
	}
	return nil
}
