package stream

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFleetSingleShardMatchesBatch is the fleet parity anchor: a
// one-shard fleet with admission disabled produces verdicts identical to
// the batch reference pipeline (and hence to the pre-fleet engine, which
// the batch goldens already anchor).
func TestFleetSingleShardMatchesBatch(t *testing.T) {
	authentic, emulated := testFrames(t, []byte("fleet-parity"))
	capture, err := BuildCapture(rand.New(rand.NewSource(11)), 1e-3, 800, authentic, emulated, authentic)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	want := batchVerdicts(t, capture)

	f, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []Verdict
	if _, err := f.Process(context.Background(), NewSliceSource(capture), func(v Verdict) {
		got = append(got, v)
	}); err != nil {
		t.Fatal(err)
	}
	compareToBatch(t, got, want)
	for _, v := range got {
		if v.Degraded {
			t.Fatalf("verdict %d marked Degraded with admission disabled", v.Seq)
		}
	}
}

// TestFleetShardAffinity: equal keys always land on the same shard,
// different keys spread out, and keyless sessions cycle every shard.
func TestFleetShardAffinity(t *testing.T) {
	f, err := NewEngine(fleetConfig(t, 4, false))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", f.Shards())
	}
	used := map[int]bool{}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("client-%d", i)
		first := f.shardFor(key)
		if first < 0 || first >= 4 {
			t.Fatalf("key %q: shard %d out of range", key, first)
		}
		used[first] = true
		for rep := 0; rep < 3; rep++ {
			if got := f.shardFor(key); got != first {
				t.Fatalf("key %q: shard %d then %d, want consistent", key, first, got)
			}
		}
	}
	if len(used) < 2 {
		t.Fatalf("64 distinct keys mapped to %d shard(s), want spread", len(used))
	}
	keyless := map[int]bool{}
	for i := 0; i < 4; i++ {
		keyless[f.shardFor("")] = true
	}
	if len(keyless) != 4 {
		t.Fatalf("4 keyless sessions covered %d shards, want all 4 (round-robin)", len(keyless))
	}
}

// TestFleetShedsUnderOverload: a shard in TierShed rejects sessions at
// admission with a *ShedError before reading any sample, and counts them.
func TestFleetShedsUnderOverload(t *testing.T) {
	f, err := NewEngine(fleetConfig(t, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.sample = func(int) admissionSample { return admissionSample{queueDepth: 64} }

	shard := f.shardFor("overloaded-client")
	shedBefore := f.shards[shard].shed.Value()
	emitted := 0
	_, err = f.Process(context.Background(), NewSliceSource(make([]complex128, 4096)),
		func(Verdict) { emitted++ }, WithSessionKey("overloaded-client"))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("Process under overload: err %v, want ErrShed", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("err %T, want *ShedError", err)
	}
	if shed.Shard != shard || shed.QueueDepth != 64 {
		t.Fatalf("ShedError %+v, want shard %d queue 64", shed, shard)
	}
	if emitted != 0 {
		t.Fatalf("%d verdicts emitted from a shed session, want 0", emitted)
	}
	if got := f.shards[shard].shed.Value() - shedBefore; got != 1 {
		t.Fatalf("shard shed counter advanced %d, want 1", got)
	}
	if tier := f.ShardTable()[shard].Tier; tier != "shed" {
		t.Fatalf("ShardTable tier %q, want shed", tier)
	}
}

// TestFleetDegradesUnderLoad: a shard in TierDegrade still serves the
// session, stamping Degraded on every verdict; clean high-SNR frames
// still sync and decode at the raised threshold.
func TestFleetDegradesUnderLoad(t *testing.T) {
	authentic, _ := testFrames(t, []byte("degrade-me"))
	capture, err := BuildCapture(rand.New(rand.NewSource(13)), 1e-3, 700, authentic, authentic)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewEngine(fleetConfig(t, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hot := admissionSample{queueDepth: f.shards[0].adm.degradeQueue}
	f.sample = func(int) admissionSample { return hot }

	degBefore := f.shards[0].degraded.Value()
	var got []Verdict
	stats, err := f.Process(context.Background(), NewSliceSource(capture), func(v Verdict) {
		got = append(got, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames != 2 || len(got) != 2 {
		t.Fatalf("degraded session found %d frames (%d verdicts), want 2", stats.Frames, len(got))
	}
	for _, v := range got {
		if !v.Degraded {
			t.Fatalf("verdict %d not stamped Degraded", v.Seq)
		}
		if !v.Decided() {
			t.Fatalf("verdict %d: dropped=%v err=%q, want clean decode at raised threshold", v.Seq, v.Dropped, v.Err)
		}
		if v.Proto == "" {
			t.Fatalf("verdict %d has empty Proto", v.Seq)
		}
	}
	if got := f.shards[0].degraded.Value() - degBefore; got != 1 {
		t.Fatalf("shard degraded counter advanced %d, want 1", got)
	}
}

// TestFleetRecoversViaHysteresis drives the admission clock directly:
// shed under overload, then step down tier by tier as cool samples hold.
func TestFleetRecoversViaHysteresis(t *testing.T) {
	f, err := NewEngine(fleetConfig(t, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	load := admissionSample{queueDepth: f.shards[0].adm.shedQueue}
	clock := time.Unix(5000, 0)
	f.now = func() time.Time { return clock }
	f.sample = func(int) admissionSample { return load }

	probe := func() error {
		_, err := f.Process(context.Background(), NewSliceSource(nil), nil)
		return err
	}
	if err := probe(); !errors.Is(err, ErrShed) {
		t.Fatalf("overloaded probe: err %v, want ErrShed", err)
	}
	load = admissionSample{} // cool
	if err := probe(); !errors.Is(err, ErrShed) {
		t.Fatal("tier dropped without holding the recovery period")
	}
	clock = clock.Add(6 * time.Second)
	if err := probe(); err != nil { // steps down to degrade: session runs
		t.Fatalf("post-hold probe: %v, want degraded admission", err)
	}
	if tier := f.ShardTable()[0].Tier; tier != "degrade" {
		t.Fatalf("tier %q after one hold, want degrade", tier)
	}
	clock = clock.Add(time.Second)
	if err := probe(); err != nil { // starts the second hold clock
		t.Fatal(err)
	}
	clock = clock.Add(6 * time.Second)
	if err := probe(); err != nil {
		t.Fatal(err)
	}
	if tier := f.ShardTable()[0].Tier; tier != "accept" {
		t.Fatalf("tier %q after two holds, want accept", tier)
	}
}

// TestFleetChurnNoGoroutineLeak runs hundreds of short sessions across
// shards concurrently (race-clean under -race) and checks the fleet
// tears down to the starting goroutine count.
func TestFleetChurnNoGoroutineLeak(t *testing.T) {
	authentic, _ := testFrames(t, []byte("churn"))
	capture, err := BuildCapture(rand.New(rand.NewSource(17)), 1e-3, 600, authentic)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	cfg := testConfig(t)
	cfg.Workers = 2
	cfg.Shards = 4
	cfg.Admission = true
	f, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A calm load reading whatever the box's real latency: this test is
	// about churn and teardown, not tiering.
	f.sample = func(int) admissionSample { return admissionSample{} }
	const clients = 16
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for s := 0; s < 4; s++ {
				key := fmt.Sprintf("client-%d", c)
				if s%2 == 1 {
					key = "" // exercise round-robin assignment too
				}
				if _, err := f.Process(context.Background(), NewSliceSource(capture), nil,
					WithSessionKey(key)); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	f.Close()
	f.Close() // idempotent
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	waitNoGoroutineLeak(t, before)
}

// fleetConfig is testConfig spread over shards, with admission on or off.
func fleetConfig(t *testing.T, shards int, adm bool) Config {
	cfg := testConfig(t)
	cfg.Shards, cfg.Admission = shards, adm
	return cfg
}

// waitNoGoroutineLeak polls for up to 2 s until the goroutine count is
// back at or below before, and fails the test if it is not.
func waitNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after fleet shutdown",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetSaturationAccounting is BenchmarkEngineSaturation's
// 256-session point as a test: 256 concurrent sessions of the soak
// capture on a 4-shard fleet with default admission. Every session is
// either shed or served, the shards' shed counters match the ErrShed
// returns, every served session emits exactly Stats.Frames verdicts of
// which Stats.Dropped are tombstones, and the fleet tears down clean.
func TestFleetSaturationAccounting(t *testing.T) {
	const sessions = 256
	capture := soakCapture(t)
	before := runtime.NumGoroutine()
	f, err := NewEngine(fleetConfig(t, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	shedBefore := make([]int64, len(f.shards))
	for i, e := range f.shards {
		shedBefore[i] = e.shed.Value()
	}
	var (
		wg           sync.WaitGroup
		served, shed atomic.Int64
		errs         = make([]error, sessions)
	)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var verdicts, dropped int64
			stats, err := f.Process(context.Background(), NewSliceSource(capture), func(v Verdict) {
				verdicts++
				if v.Dropped {
					dropped++
				}
			}, WithSessionKey("soak-"+strconv.Itoa(s%64)))
			switch {
			case errors.Is(err, ErrShed):
				shed.Add(1)
			case err != nil:
				errs[s] = err
			case verdicts != stats.Frames || dropped != stats.Dropped:
				errs[s] = fmt.Errorf("emitted %d verdicts (%d dropped), stats say %d frames (%d dropped)",
					verdicts, dropped, stats.Frames, stats.Dropped)
			default:
				served.Add(1)
			}
		}(s)
	}
	wg.Wait()
	f.Close()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", s, err)
		}
	}
	if got := shed.Load() + served.Load(); got != sessions {
		t.Errorf("shed %d + served %d = %d sessions, want %d", shed.Load(), served.Load(), got, sessions)
	}
	var shedCounted int64
	for i, e := range f.shards {
		shedCounted += e.shed.Value() - shedBefore[i]
	}
	if shedCounted != shed.Load() {
		t.Errorf("shard shed counters rose by %d, %d sessions returned ErrShed", shedCounted, shed.Load())
	}
	t.Logf("%d served, %d shed", served.Load(), shed.Load())
	waitNoGoroutineLeak(t, before)
}

// TestVerdictsAlwaysCarryProto is the regression test for the label-loss
// bug class: every emitted Verdict — worker-path, queue-eviction
// tombstone, and engine-closed tombstone — carries a non-empty Proto,
// and degraded sessions' tombstones stay stamped Degraded.
func TestVerdictsAlwaysCarryProto(t *testing.T) {
	// Worker path: a normal session over a real capture.
	authentic, _ := testFrames(t, []byte("labels"))
	capture, err := BuildCapture(rand.New(rand.NewSource(19)), 1e-3, 600, authentic)
	if err != nil {
		t.Fatal(err)
	}
	var normal []Verdict
	if _, err := Process(context.Background(), testConfig(t), NewSliceSource(capture), func(v Verdict) {
		normal = append(normal, v)
	}); err != nil {
		t.Fatal(err)
	}
	if len(normal) == 0 {
		t.Fatal("no verdicts from worker path")
	}
	for _, v := range normal {
		if v.Proto == "" {
			t.Fatalf("worker-path verdict %d has empty Proto", v.Seq)
		}
	}

	// Queue-eviction tombstone: two jobs through a depth-1 queue with no
	// workers; the second push evicts the first, which must surface as a
	// fully labelled Dropped verdict.
	e := &Engine{cfg: Config{MaxPending: 8}}
	sh := newShard(0, Config{QueueDepth: 1})
	var (
		mu   sync.Mutex
		tomb []Verdict
	)
	s := newSession(e, sh, testPipe(t), func(v Verdict) {
		mu.Lock()
		tomb = append(tomb, v)
		mu.Unlock()
	}, sessionOpts{degraded: true}, nil)
	s.submit(job{sess: s, pipe: s.pipe, seq: 0, offset: 100})
	s.submit(job{sess: s, pipe: s.pipe, seq: 1, offset: 200})
	j, ok := sh.q.pop() // hand-deliver the surviving job so drain can finish
	if !ok || j.seq != 1 {
		t.Fatalf("queue pop: seq %d ok %v, want surviving seq 1", j.seq, ok)
	}
	j.sess.deliver(Verdict{Seq: j.seq, Proto: j.pipe.name, Offset: j.offset, Degraded: j.sess.degraded})
	s.drain()

	// Engine-closed tombstone.
	e2, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	s2 := newSession(e2, e2.shards[0], e2.pipes[0], func(v Verdict) {
		mu.Lock()
		tomb = append(tomb, v)
		mu.Unlock()
	}, sessionOpts{degraded: true}, nil)
	e2.Close()
	s2.submit(job{sess: s2, pipe: s2.pipe, seq: 0, offset: 300})
	s2.drain()

	mu.Lock()
	defer mu.Unlock()
	if len(tomb) != 3 {
		t.Fatalf("got %d tombstone-path verdicts, want 3", len(tomb))
	}
	for i, v := range tomb {
		if v.Proto == "" {
			t.Fatalf("tombstone verdict %d (seq %d) has empty Proto", i, v.Seq)
		}
		if !v.Degraded {
			t.Fatalf("tombstone verdict %d (seq %d) lost the Degraded stamp", i, v.Seq)
		}
	}
}

// TestProcessOptionValidation: the variadic API rejects bad options the
// same way the old positional API rejected bad arguments.
func TestProcessOptionValidation(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Process(context.Background(), NewSliceSource(nil), nil, WithProto("nope")); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := e.Process(context.Background(), nil, nil); err == nil {
		t.Fatal("nil source accepted")
	}
}
