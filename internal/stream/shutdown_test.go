package stream

import (
	"context"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSessionsSharedEngine drives four sessions through one
// shared engine at once (the daemon's serving shape) and checks every
// session's ordered verdicts against its own batch golden. Run under
// `make race` / CI this is the pipeline's data-race proof.
func TestConcurrentSessionsSharedEngine(t *testing.T) {
	authentic, emulated := testFrames(t, []byte("conc"))
	cfg := testConfig(t)
	cfg.Workers = 4
	cfg.ChunkSize = 512
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const sessions = 4
	captures := make([][]complex128, sessions)
	goldens := make([][]refVerdict, sessions)
	for i := range captures {
		// Distinct noise seeds and orderings per session.
		waves := [][]complex128{authentic, emulated}
		if i%2 == 1 {
			waves = [][]complex128{emulated, authentic, emulated}
		}
		captures[i], err = BuildCapture(rand.New(rand.NewSource(int64(100+i))), 1e-3, 800, waves...)
		if err != nil {
			t.Fatal(err)
		}
		goldens[i] = batchVerdicts(t, captures[i])
	}

	results := make([][]Verdict, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var got []Verdict
			_, errs[i] = e.Process(context.Background(), NewSliceSource(captures[i]), func(v Verdict) {
				got = append(got, v)
			})
			results[i] = got
		}(i)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		compareToBatch(t, results[i], goldens[i])
	}
}

// TestShutdownNoGoroutineLeak proves Engine.Close reclaims every worker:
// repeated engine lifecycles leave the process goroutine count where it
// started.
func TestShutdownNoGoroutineLeak(t *testing.T) {
	authentic, _ := testFrames(t, []byte("leak"))
	capture, err := BuildCapture(rand.New(rand.NewSource(5)), 1e-3, 700, authentic)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		cfg := testConfig(t)
		cfg.Workers = 8
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Process(context.Background(), NewSliceSource(capture), nil); err != nil {
			t.Fatal(err)
		}
		e.Close()
		e.Close() // idempotent
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after engine shutdowns",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cancelAfterSource cancels a context after a fixed number of blocks,
// modelling a client that disappears mid-stream.
type cancelAfterSource struct {
	inner  Source
	after  int
	cancel context.CancelFunc
	blocks int
}

func (s *cancelAfterSource) ReadBlock(dst []complex128) (int, error) {
	s.blocks++
	if s.blocks > s.after {
		s.cancel()
	}
	return s.inner.ReadBlock(dst)
}

// TestCancelDrainsDeterministically: a cancelled session returns
// ctx.Err(), still delivers every in-flight frame before returning, and
// leaves no goroutines behind.
func TestCancelDrainsDeterministically(t *testing.T) {
	authentic, emulated := testFrames(t, []byte("cancel"))
	capture, err := BuildCapture(rand.New(rand.NewSource(23)), 1e-3, 700,
		authentic, emulated, authentic, emulated)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := testConfig(t)
	cfg.ChunkSize = 256
	src := &cancelAfterSource{inner: NewSliceSource(capture), after: 8, cancel: cancel}
	emitted := 0
	_, perr := Process(ctx, cfg, src, func(Verdict) { emitted++ })
	if perr != context.Canceled {
		t.Fatalf("Process returned %v, want context.Canceled", perr)
	}
	// Ingest stopped early, so not all four frames can have been seen.
	if emitted >= 4 {
		t.Errorf("emitted %d verdicts after early cancel, want < 4", emitted)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancel: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStalledConsumerDoesNotWedgePool: a consumer that blocks inside
// emit (a client that streams samples but never reads verdicts) must not
// wedge the shared worker pool. With a single worker, a second session
// must still complete while the first session's consumer is stalled —
// workers only park results; emission happens on the stalled session's
// own delivery goroutine.
func TestStalledConsumerDoesNotWedgePool(t *testing.T) {
	authentic, emulated := testFrames(t, []byte("stall"))
	captureA, err := BuildCapture(rand.New(rand.NewSource(31)), 1e-3, 700, authentic, emulated)
	if err != nil {
		t.Fatal(err)
	}
	captureB, err := BuildCapture(rand.New(rand.NewSource(32)), 1e-3, 700, emulated, authentic)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	cfg.Workers = 1 // one shared worker: blocking it would wedge everything
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	release := make(chan struct{})
	aDone := make(chan int, 1)
	go func() {
		emitted := 0
		if _, err := e.Process(context.Background(), NewSliceSource(captureA), func(Verdict) {
			<-release // consumer reads nothing until released
			emitted++
		}); err != nil {
			t.Error(err)
		}
		aDone <- emitted
	}()

	bDone := make(chan []Verdict, 1)
	go func() {
		var got []Verdict
		if _, err := e.Process(context.Background(), NewSliceSource(captureB), func(v Verdict) {
			got = append(got, v)
		}); err != nil {
			t.Error(err)
		}
		bDone <- got
	}()

	select {
	case got := <-bDone:
		if len(got) != 2 {
			t.Errorf("session B emitted %d verdicts, want 2", len(got))
		}
	case <-time.After(60 * time.Second):
		t.Fatal("session B wedged behind session A's stalled consumer")
	}
	close(release)
	select {
	case emitted := <-aDone:
		if emitted != 2 {
			t.Errorf("session A emitted %d verdicts after release, want 2", emitted)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("session A did not drain after its consumer resumed")
	}
}

// TestProcessOnClosedEngine: a closed engine refuses new sessions instead
// of wedging them.
func TestProcessOnClosedEngine(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := e.Process(context.Background(), NewSliceSource(nil), nil); err == nil {
		t.Fatal("Process on closed engine succeeded")
	}
}

// TestSourceErrorPropagates: a mid-stream source failure aborts the
// session with the wrapped error after draining.
func TestSourceErrorPropagates(t *testing.T) {
	if _, err := Process(context.Background(), testConfig(t), failSource{}, nil); err == nil {
		t.Fatal("source error not propagated")
	}
}

type failSource struct{}

func (failSource) ReadBlock(dst []complex128) (int, error) {
	return 0, io.ErrClosedPipe
}
