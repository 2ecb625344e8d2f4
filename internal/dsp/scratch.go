package dsp

// Carve cuts n elements off the unused end of *arena and returns them
// full-length and capacity-clipped, so appends to the carve never bleed
// into the next one. When *arena runs out it swaps in a fresh array of at
// least minCap elements WITHOUT copying: earlier carves keep the old
// array, which stays alive exactly as long as they do. Resetting the
// arena to length 0 reclaims the current array for new carves. The
// carve's contents are stale; callers overwrite them.
func Carve[T any](arena *[]T, n, minCap int) []T {
	if len(*arena)+n > cap(*arena) {
		*arena = make([]T, 0, max(2*(len(*arena)+n), minCap))
	}
	off := len(*arena)
	*arena = (*arena)[:off+n]
	return (*arena)[off : off+n : off+n]
}

// Grow returns (*buf)[:n], first replacing *buf with a fresh n-element
// array if its capacity is short: grow-only scratch that stops allocating
// once it has reached a session's largest size. The contents are stale;
// callers overwrite them.
func Grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}
