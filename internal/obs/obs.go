// Package obs is the zero-dependency observability layer: named atomic
// counters, monotonic timers, and mutex-guarded value histograms, all cheap
// enough to stay enabled on the DSP hot path, plus a JSON-serializable
// snapshot ("run manifest") of everything measured.
//
// Contract:
//
//   - Instruments are write-only from the measured code's point of view:
//     nothing in this package influences simulation results, and nothing
//     here ever writes to stdout. Telemetry is pulled by callers (the
//     -manifest flag, the -progress ticker) and routed to stderr or files,
//     preserving the byte-identical-stdout guarantee of cmd/experiments.
//
//   - Hot-path cost is one or two atomic adds per event (Counter, Timer)
//     or one short critical section on the histogram's mutex (Histogram).
//     Callers look instruments up once (package-level vars) and keep the
//     pointer; lookup itself takes the registry mutex.
//
//   - Names are dotted paths, "<package>.<stage>": "runner.trial_errors",
//     "emulation.emulate", "zigbee.despread". The name is the identity —
//     looking up the same name twice returns the same instrument.
package obs

import (
	"sort"
	"sync"
)

// Registry is a named collection of instruments. The zero value is not
// usable; call NewRegistry. Most code uses the package-level standard
// registry through C, T, H, and Snap.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	timers   map[string]*Timer
	hists    map[string]*Histogram
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		timers:   map[string]*Timer{},
		hists:    map[string]*Histogram{},
		gauges:   map[string]*Gauge{},
	}
}

// std is the process-wide registry behind the package-level helpers.
var std = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Reset discards every instrument in the registry. Existing pointers keep
// working but are no longer reachable from snapshots — callers that cache
// instruments in package vars should re-fetch after a Reset. Intended for
// tests.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = map[string]*Counter{}
	r.timers = map[string]*Timer{}
	r.hists = map[string]*Histogram{}
	r.gauges = map[string]*Gauge{}
}

// names returns the sorted instrument names of one kind (for stable
// snapshot ordering in tests and diffs).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// C returns the named counter from the standard registry.
func C(name string) *Counter { return std.Counter(name) }

// T returns the named timer from the standard registry.
func T(name string) *Timer { return std.Timer(name) }

// H returns the named histogram from the standard registry.
func H(name string) *Histogram { return std.Histogram(name) }

// Std returns the standard registry itself (snapshotting, tests).
func Std() *Registry { return std }
