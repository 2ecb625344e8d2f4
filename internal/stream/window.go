package stream

import "fmt"

// window is the session's overlap-aware sliding buffer over the sample
// stream: appended chunks accumulate at the tail, consumed samples are
// discarded from the head, and base tracks the absolute stream offset of
// the first retained sample. The scanner's retention policy (keep at
// least SyncRefSamples−1 of overlap while searching, keep a whole frame
// span while one is pending) bounds its size to roughly one maximum
// frame plus one chunk, so memory stays O(1) on unbounded streams.
//
// Storage is a single backing slice with head compaction: discard
// advances a start index, and append copies the live region down once
// the dead prefix outgrows the live data — amortized O(1) per sample
// with no per-chunk allocation in steady state.
type window struct {
	base  int64 // absolute stream offset of buf[start]
	buf   []complex128
	start int
}

// view returns the retained samples. The slice is invalidated by the
// next append or discard.
func (w *window) view() []complex128 { return w.buf[w.start:] }

// size returns how many samples are retained.
func (w *window) size() int { return len(w.buf) - w.start }

// offset returns the absolute stream offset of view()[0].
func (w *window) offset() int64 { return w.base }

// end returns the absolute stream offset one past the last retained
// sample: how far the stream has been read.
func (w *window) end() int64 { return w.base + int64(w.size()) }

// append adds a chunk at the tail, compacting the dead prefix first when
// it dominates the buffer. Growth goes through the sample arena
// (pool.go) instead of the allocator, dropping the dead prefix in the
// same move; release returns the backing to the arena when the session
// ends.
func (w *window) append(chunk []complex128) {
	if w.start > 0 && w.start >= w.size() {
		n := copy(w.buf, w.buf[w.start:])
		w.buf = w.buf[:n]
		w.start = 0
	}
	if live := w.size(); live+len(chunk) > cap(w.buf)-w.start {
		nb := getCF32(live + len(chunk))[:live]
		copy(nb, w.buf[w.start:])
		putCF32(w.buf)
		w.buf = nb
		w.start = 0
	}
	w.buf = append(w.buf, chunk...)
}

// release returns the backing buffer to the arena. The window must not be
// used again afterwards.
func (w *window) release() {
	putCF32(w.buf)
	w.buf, w.start = nil, 0
}

// discard drops n samples from the head.
func (w *window) discard(n int) {
	if n < 0 || n > w.size() {
		panic(fmt.Sprintf("stream: discard %d of %d retained samples", n, w.size()))
	}
	w.start += n
	w.base += int64(n)
}
