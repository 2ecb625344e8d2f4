package stream

import (
	"sync"
	"testing"

	"hideseek/internal/emulation"
	"hideseek/internal/phy/zigbeephy"
	"hideseek/internal/zigbee"
)

// testPipe builds a served-pipe fixture for white-box session tests.
func testPipe(t *testing.T) *enginePipe {
	t.Helper()
	p, err := zigbeephy.NewPipeline(zigbee.ReceiverConfig{}, emulation.DefenseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return &enginePipe{
		name:   p.Protocol,
		rx:     p.Receiver,
		det:    p.Detector,
		refLen: p.Receiver.SyncRefSamples(),
		hdr:    p.Receiver.HeaderSamples(),
		tail:   p.Receiver.TailSamples(),
		obs:    newProtoObs(p.Protocol),
	}
}

func TestJobQueueDropOldest(t *testing.T) {
	q := newJobQueue(2)
	if ev, ok := q.push(job{seq: 0}); !ok || len(ev) != 0 {
		t.Fatalf("push 0: evicted %d, ok %v", len(ev), ok)
	}
	if ev, ok := q.push(job{seq: 1}); !ok || len(ev) != 0 {
		t.Fatalf("push 1: evicted %d, ok %v", len(ev), ok)
	}
	ev, ok := q.push(job{seq: 2})
	if !ok || len(ev) != 1 || ev[0].seq != 0 {
		t.Fatalf("push 2: evicted %+v, ok %v, want oldest (seq 0)", ev, ok)
	}
	if q.depth() != 2 {
		t.Fatalf("depth %d, want 2", q.depth())
	}
	for _, want := range []uint64{1, 2} {
		j, ok := q.pop()
		if !ok || j.seq != want {
			t.Fatalf("pop: got seq %d (ok %v), want %d", j.seq, ok, want)
		}
	}
	q.close()
	if _, ok := q.pop(); ok {
		t.Fatal("pop succeeded on closed empty queue")
	}
	if _, ok := q.push(job{seq: 3}); ok {
		t.Fatal("push succeeded on closed queue")
	}
}

func TestJobQueueCloseDrains(t *testing.T) {
	q := newJobQueue(4)
	q.push(job{seq: 7})
	q.close()
	j, ok := q.pop()
	if !ok || j.seq != 7 {
		t.Fatalf("queued job lost on close: seq %d, ok %v", j.seq, ok)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop succeeded after drain")
	}
}

func TestWindowAppendDiscard(t *testing.T) {
	var w window
	ref := make([]complex128, 0)
	gen := func(n int, base float64) []complex128 {
		out := make([]complex128, n)
		for i := range out {
			out[i] = complex(base+float64(i), 0)
		}
		return out
	}
	w.append(gen(10, 0))
	ref = append(ref, gen(10, 0)...)
	w.discard(7)
	ref = ref[7:]
	// Appends after a dominant dead prefix trigger compaction; contents
	// and offsets must be unaffected.
	w.append(gen(5, 100))
	ref = append(ref, gen(5, 100)...)
	if w.offset() != 7 {
		t.Errorf("offset %d, want 7", w.offset())
	}
	if w.size() != len(ref) {
		t.Fatalf("size %d, want %d", w.size(), len(ref))
	}
	for i, v := range w.view() {
		if v != ref[i] {
			t.Fatalf("view[%d] = %v, want %v", i, v, ref[i])
		}
	}
	w.discard(w.size())
	if w.size() != 0 || w.offset() != 15 {
		t.Errorf("after full discard: size %d offset %d, want 0/15", w.size(), w.offset())
	}
	defer func() {
		if recover() == nil {
			t.Error("over-discard did not panic")
		}
	}()
	w.discard(1)
}

// TestDeliverReordersAndCountsTombstones feeds a session's reassembly
// stage out of order — a decode failure, a detect failure, and a Dropped
// tombstone — and checks emission order and per-stage stats. Emission
// happens on the session's delivery goroutine, so the checks run after
// drain.
func TestDeliverReordersAndCountsTombstones(t *testing.T) {
	var (
		mu  sync.Mutex
		got []uint64
	)
	s := newSession(&Engine{cfg: Config{MaxPending: 8}}, nil, testPipe(t), func(v Verdict) {
		mu.Lock()
		got = append(got, v.Seq)
		mu.Unlock()
	}, sessionOpts{}, nil)
	s.mu.Lock()
	s.inflight = 4
	s.mu.Unlock()
	s.deliver(Verdict{Seq: 2, Err: "decode failed", ErrStage: StageDecode})
	s.deliver(Verdict{Seq: 3, Err: "detect failed", ErrStage: StageDetect})
	s.deliver(Verdict{Seq: 1, Dropped: true})
	s.deliver(Verdict{Seq: 0})
	s.drain()
	if len(got) != 4 || got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 3 {
		t.Fatalf("emission order %v, want [0 1 2 3]", got)
	}
	if s.inflight != 0 {
		t.Errorf("inflight %d after full flush, want 0", s.inflight)
	}
	if s.stats.Dropped != 1 || s.stats.DecodeErrors != 1 || s.stats.DetectErrors != 1 {
		t.Errorf("stats dropped=%d decodeErrors=%d detectErrors=%d, want 1/1/1",
			s.stats.Dropped, s.stats.DecodeErrors, s.stats.DetectErrors)
	}
}
