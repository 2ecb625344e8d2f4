package obs

import (
	"container/heap"
	"sort"
	"sync"
)

// TopK is a space-saving heavy-hitter sketch (Metwally, Agrawal, El
// Abbadi 2005): fixed capacity of monitored keys, and when a new key
// arrives at a full sketch it evicts the minimum-count entry,
// inheriting its count as the new key's error bound. For any reported
// entry the true weight w satisfies Count-Err <= w <= Count, and any
// key whose true weight exceeds total/capacity is guaranteed to be
// monitored — exactly the property needed to name heavy-hitter session
// keys without per-key memory.
//
// Weights are float64 so the same sketch attributes both event counts
// (w=1 per frame) and magnitudes (w=latency nanoseconds). A single
// mutex guards the sketch: each engine shard owns its own sketches, so
// contention is bounded by per-shard concurrency, like shardObs.
type TopK struct {
	mu  sync.Mutex
	cap int
	m   map[string]*topkEntry
	h   topkHeap
}

type topkEntry struct {
	key   string
	count float64
	err   float64
	idx   int // heap index
}

// TopKEntry is one reported heavy hitter. Count overestimates the true
// weight by at most Err.
type TopKEntry struct {
	Key   string  `json:"key"`
	Count float64 `json:"count"`
	Err   float64 `json:"err,omitempty"`
}

// NewTopK returns a sketch monitoring at most capacity keys (minimum 1).
func NewTopK(capacity int) *TopK {
	if capacity < 1 {
		capacity = 1
	}
	return &TopK{
		cap: capacity,
		m:   make(map[string]*topkEntry, capacity),
	}
}

// Add credits key with weight w. Non-positive weights are ignored.
func (t *TopK) Add(key string, w float64) {
	if t == nil || w <= 0 {
		return
	}
	t.mu.Lock()
	if e, ok := t.m[key]; ok {
		e.count += w
		heap.Fix(&t.h, e.idx)
		t.mu.Unlock()
		return
	}
	if len(t.m) < t.cap {
		e := &topkEntry{key: key, count: w}
		t.m[key] = e
		heap.Push(&t.h, e)
		t.mu.Unlock()
		return
	}
	// Full: the new key replaces the minimum, inheriting its count as
	// the error bound.
	min := t.h[0]
	delete(t.m, min.key)
	e := &topkEntry{key: key, count: min.count + w, err: min.count}
	t.m[key] = e
	t.h[0] = e
	e.idx = 0
	heap.Fix(&t.h, 0)
	t.mu.Unlock()
}

// Top returns up to k entries in decreasing Count order. k <= 0 returns
// every monitored key.
func (t *TopK) Top(k int) []TopKEntry {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]TopKEntry, 0, len(t.h))
	for _, e := range t.h {
		out = append(out, TopKEntry{Key: e.key, Count: e.count, Err: e.err})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Merge folds the entries of a Top() report into t (used to combine
// per-shard sketches into an engine-wide view). Error bounds add: the
// merged overestimate is at most the sum of the parts'.
func (t *TopK) Merge(entries []TopKEntry) {
	for _, e := range entries {
		t.mu.Lock()
		if cur, ok := t.m[e.Key]; ok {
			cur.count += e.Count
			cur.err += e.Err
			heap.Fix(&t.h, cur.idx)
			t.mu.Unlock()
			continue
		}
		if len(t.m) < t.cap {
			ne := &topkEntry{key: e.Key, count: e.Count, err: e.Err}
			t.m[e.Key] = ne
			heap.Push(&t.h, ne)
			t.mu.Unlock()
			continue
		}
		min := t.h[0]
		delete(t.m, min.key)
		ne := &topkEntry{key: e.Key, count: min.count + e.Count, err: min.count + e.Err}
		t.m[e.Key] = ne
		t.h[0] = ne
		ne.idx = 0
		heap.Fix(&t.h, 0)
		t.mu.Unlock()
	}
}

// topkHeap is a min-heap on count, so the eviction victim is O(1) away.
type topkHeap []*topkEntry

func (h topkHeap) Len() int           { return len(h) }
func (h topkHeap) Less(i, j int) bool { return h[i].count < h[j].count }
func (h topkHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *topkHeap) Push(x any)        { e := x.(*topkEntry); e.idx = len(*h); *h = append(*h, e) }
func (h *topkHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
