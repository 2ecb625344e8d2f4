package stream

import (
	"math/bits"
	"sync"
)

// Sample-buffer arena: size-classed sync.Pools for the three per-session
// allocations the pipeline makes in steady state — the chunk ingest
// buffer, the sliding window backing, and the per-frame copy handed to
// the worker pool. At daemon scale (thousands of sessions churning per
// node) these dominate the allocation rate; recycling them through the
// arena keeps 10k-session churn from thrashing the GC while leaving the
// scan/decode/detect results untouched (buffers are always fully
// overwritten before being read, so recycled contents can never leak
// into a verdict).
//
// Classes are powers of two from 1<<poolMinBits to 1<<poolMaxBits
// samples; requests outside that range fall through to plain make and are
// never recycled. Only buffers whose capacity is exactly a class size
// round-trip through put, so foreign slices handed to the pipeline can
// never enter the arena.
const (
	poolMinBits = 8  // smallest pooled class: 256 samples (4 KiB)
	poolMaxBits = 24 // largest pooled class: 16 Mi samples (256 MiB)
)

var cf32Pools [poolMaxBits + 1]sync.Pool

// cf32Boxes recycles the *[]complex128 boxes the class pools hold, so a
// put boxes its slice header in an emptied box instead of allocating one.
var cf32Boxes sync.Pool

// poolClass returns the smallest class whose size holds n samples, or -1
// when n is outside the pooled range.
func poolClass(n int) int {
	if n < 1 || n > 1<<poolMaxBits {
		return -1
	}
	c := bits.Len(uint(n - 1))
	if c < poolMinBits {
		c = poolMinBits
	}
	return c
}

// getCF32 returns a length-n sample buffer, recycled from the arena when
// a buffer of the right class is available. The contents are NOT zeroed:
// callers must fully overwrite the buffer before reading it.
func getCF32(n int) []complex128 {
	if n == 0 {
		return nil
	}
	c := poolClass(n)
	if c < 0 {
		return make([]complex128, n)
	}
	if v := cf32Pools[c].Get(); v != nil {
		box := v.(*[]complex128)
		b := *box
		*box = nil
		cf32Boxes.Put(box)
		return b[:n]
	}
	return make([]complex128, n, 1<<c)
}

// putCF32 recycles a buffer obtained from getCF32. Buffers whose capacity
// is not an exact pool class (foreign slices, out-of-range sizes) are
// dropped for the GC instead.
func putCF32(b []complex128) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	class := bits.Len(uint(c)) - 1
	if class < poolMinBits || class > poolMaxBits {
		return
	}
	box, _ := cf32Boxes.Get().(*[]complex128)
	if box == nil {
		box = new([]complex128)
	}
	*box = b[:0]
	cf32Pools[class].Put(box)
}
