// Package runner is the shared experiment-execution layer: a deterministic
// worker-pool that fans independent trials out across goroutines while
// keeping every observable output byte-identical regardless of worker
// count.
//
// The contract has three parts:
//
//  1. RNG sharding. Every trial owns a private *rand.Rand derived from
//     (seed, salt) as seed*1000003 + salt — the derivation the sim drivers
//     have always used — with salt = Sweep.Base + trial index. No RNG is
//     ever shared between trials, so the noise a trial sees depends only
//     on its index, never on scheduling.
//
//  2. Ordered result slots. Trial i writes result slot i. Callers receive
//     a slice ordered by trial index, so aggregation (and therefore every
//     rendered table) is identical at 1 worker and at 64.
//
//  3. Per-worker scratch. Reusable TX/RX/emulator/detector instances are
//     built once per worker goroutine, not once per trial, so N workers
//     cost N scratch sets — not trials× — of allocation and GC pressure.
//
// Errors are deterministic too: when any trial fails, Map returns the
// error of the lowest-index failing trial. Workers claim indices in order
// from an atomic cursor, so every trial below a failing index has already
// been claimed and runs to completion before the verdict is chosen.
package runner

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hideseek/internal/obs"
)

// rngMultiplier is the historical seed-spreading constant of the sim
// package; it is part of the reproducibility contract (results files and
// pinned experiment outputs depend on it).
const rngMultiplier = 1000003

// RNG derives the deterministic child generator for one (seed, salt) pair.
// Distinct salts under one seed give distinct, uncorrelated-enough streams
// for Monte-Carlo trial use.
func RNG(seed, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*rngMultiplier + salt))
}

// defaultWorkers holds the process-wide pool size used when a Pool is
// constructed with workers <= 0. Zero means runtime.GOMAXPROCS(0).
var defaultWorkers atomic.Int64

// DefaultWorkers returns the process-wide default worker count.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetDefaultWorkers sets the process-wide default pool size; n <= 0 resets
// to runtime.GOMAXPROCS(0). cmd binaries wire their -workers flag here so
// library code never needs plumbed-through concurrency knobs.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// trialsExecuted counts every trial run through any Pool since process
// start — the numerator of the trials-per-second summary line.
var trialsExecuted atomic.Int64

// Observability instruments, looked up once. trialLatency and workerBusy
// let manifest consumers derive per-trial cost distributions and worker
// utilization (busy time / (wall × workers)); the counters feed the error
// and fan-out tallies. The trial_ns histogram additionally maintains
// rolling last-60s/last-2min windows (obs.Histogram.Windowed), so a
// long sweep's recent throughput is visible in snapshots and Prometheus
// exposition next to the cumulative totals. Everything here is
// measurement only — no instrument influences scheduling or results.
var (
	obsTrials       = obs.C("runner.trials")
	obsTrialErrors  = obs.C("runner.trial_errors")
	obsSweeps       = obs.C("runner.sweeps")
	obsWorkerBusy   = obs.T("runner.worker_busy")
	obsTrialLatency = obs.H("runner.trial_ns")
)

// observeTrial records one completed trial in every per-trial instrument.
func observeTrial(start time.Time, err error) {
	d := time.Since(start)
	trialsExecuted.Add(1)
	obsTrials.Inc()
	obsWorkerBusy.Observe(d)
	obsTrialLatency.Observe(float64(d.Nanoseconds()))
	if err != nil {
		obsTrialErrors.Inc()
	}
}

// TrialsExecuted returns the process-wide number of trials completed.
func TrialsExecuted() int64 { return trialsExecuted.Load() }

// Pool sizes the worker fan-out for a sweep.
type Pool struct {
	workers int
}

// NewPool returns a pool of the given width; workers <= 0 selects
// DefaultWorkers() at Run time (so a pool built before a SetDefaultWorkers
// call still honors it).
func NewPool(workers int) Pool { return Pool{workers: workers} }

// Workers resolves the effective worker count.
func (p Pool) Workers() int {
	if p.workers > 0 {
		return p.workers
	}
	return DefaultWorkers()
}

// Sweep names the deterministic identity of one trial fan-out: trial i of
// the sweep draws its RNG from (Seed, Base+i). Drivers carve disjoint Base
// regions per sweep point so no two trials anywhere share a stream.
type Sweep struct {
	Seed int64
	Base int64
}

// Trial is handed to the trial function: the trial's index within the
// sweep and its private RNG.
type Trial struct {
	Index int
	RNG   *rand.Rand
}

// Map runs fn for every trial index in [0, n) across the pool and returns
// the results ordered by index. newScratch runs once per worker goroutine;
// pass nil when no scratch is needed (S must then be a type whose zero
// value is usable, e.g. struct{}). On failure Map returns the error of the
// lowest-index failing trial and a nil slice.
//
// Map itself never recovers panics: a panicking trial crashes the process
// exactly as the serial loop it replaces would.
func Map[S, T any](p Pool, sw Sweep, n int, newScratch func() (S, error), fn func(t Trial, scratch S) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative trial count %d", n)
	}
	if n == 0 {
		return []T{}, nil
	}
	if fn == nil {
		return nil, fmt.Errorf("runner: nil trial function")
	}
	workers := p.Workers()
	if workers > n {
		workers = n
	}
	obsSweeps.Inc()

	results := make([]T, n)
	if workers <= 1 {
		// Serial fast path: no goroutines, same observable behavior.
		scratch, err := makeScratch(newScratch)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			start := time.Now()
			r, err := fn(Trial{Index: i, RNG: RNG(sw.Seed, sw.Base+int64(i))}, scratch)
			observeTrial(start, err)
			if err != nil {
				return nil, fmt.Errorf("runner: trial %d: %w", i, err)
			}
			results[i] = r
		}
		return results, nil
	}

	errs := make([]error, n)
	var (
		cursor atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		// initErr records a scratch-construction failure from any worker.
		initMu  sync.Mutex
		initErr error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			scratch, err := makeScratch(newScratch)
			if err != nil {
				initMu.Lock()
				if initErr == nil {
					initErr = err
				}
				initMu.Unlock()
				failed.Store(true)
				return
			}
			for {
				// Stop claiming after a failure. Indices are claimed in
				// order, so every trial below any failing index was claimed
				// first and runs to completion — the lowest-index error is
				// deterministic even though the tail is skipped.
				if failed.Load() {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				start := time.Now()
				r, err := fn(Trial{Index: i, RNG: RNG(sw.Seed, sw.Base+int64(i))}, scratch)
				observeTrial(start, err)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					continue
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if initErr != nil {
		return nil, fmt.Errorf("runner: scratch: %w", initErr)
	}
	if failed.Load() {
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("runner: trial %d: %w", i, err)
			}
		}
	}
	return results, nil
}

func makeScratch[S any](newScratch func() (S, error)) (S, error) {
	if newScratch == nil {
		var zero S
		return zero, nil
	}
	return newScratch()
}
