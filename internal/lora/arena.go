package lora

// frameArena is the receiver-owned backing store for everything a decoded
// Reception exposes: symbol bins, concentration tracks, payload bytes, and
// the Reception structs themselves. Entry points (ReceiveAll, DecodeAt,
// FrameSpan, Receive) reset the arena once and each decoded frame carves
// what it needs, so the steady-state decode path allocates nothing once
// the arena has warmed to the session's frame sizes.
//
// Growth rule: when a backing slice runs out mid-use, the arena swaps in
// a fresh, larger array WITHOUT copying — slices carved earlier keep the
// old array, which the garbage collector retains for exactly as long as
// the carved views live. That keeps every Reception from one ReceiveAll
// call simultaneously valid while the next reset reclaims whichever
// backing generation is current.
type frameArena struct {
	i     []int     // SymbolBins
	f64   []float64 // Concentrations, WideConcentrations
	bytes []byte    // Payload
	slots []Reception
	outs  []*Reception // the slice ReceiveAll returns
}

// reset reclaims the arena for a new entry-point call. Receptions carved
// before the reset are invalidated (their storage will be overwritten).
func (a *frameArena) reset() {
	a.i = a.i[:0]
	a.f64 = a.f64[:0]
	a.bytes = a.bytes[:0]
	a.slots = a.slots[:0]
	a.outs = a.outs[:0]
}

// ints carves room for n ints as a zero-length, capacity-clipped slice
// (the header/decode path appends one entry per symbol, never more than n).
func (a *frameArena) ints(n int) []int {
	if len(a.i)+n > cap(a.i) {
		c := 2 * (len(a.i) + n)
		if c < 1024 {
			c = 1024
		}
		a.i = make([]int, 0, c) // fresh backing; old carves keep the old array
	}
	off := len(a.i)
	a.i = a.i[:off+n]
	return a.i[off : off : off+n]
}

// floats carves room for n float64s as a zero-length, capacity-clipped
// slice (callers append, never past n).
func (a *frameArena) floats(n int) []float64 {
	if len(a.f64)+n > cap(a.f64) {
		c := 2 * (len(a.f64) + n)
		if c < 2048 {
			c = 2048
		}
		a.f64 = make([]float64, 0, c)
	}
	off := len(a.f64)
	a.f64 = a.f64[:off+n]
	return a.f64[off : off : off+n]
}

// byteBuf carves n bytes, full-length (callers overwrite every element)
// and capacity-clipped.
func (a *frameArena) byteBuf(n int) []byte {
	if len(a.bytes)+n > cap(a.bytes) {
		c := 2 * (len(a.bytes) + n)
		if c < 512 {
			c = 512
		}
		a.bytes = make([]byte, 0, c)
	}
	off := len(a.bytes)
	a.bytes = a.bytes[:off+n]
	return a.bytes[off : off+n : off+n]
}

// newFrame carves a zeroed Reception. The pointer is taken after any
// growth, and growth never copies, so previously returned pointers stay
// valid.
func (a *frameArena) newFrame() *Reception {
	if len(a.slots) == cap(a.slots) {
		c := 2 * len(a.slots)
		if c < 8 {
			c = 8
		}
		a.slots = make([]Reception, 0, c)
	}
	a.slots = a.slots[:len(a.slots)+1]
	rec := &a.slots[len(a.slots)-1]
	*rec = Reception{}
	return rec
}

// Copy returns a deep copy of the Reception with freshly allocated backing
// for every slice, so it stays valid across later receiver calls. Callers
// that keep a scratch-backed Reception (from ReceiveAll, DecodeAt) beyond
// the receiver's next decode must copy it first.
func (rec *Reception) Copy() *Reception {
	if rec == nil {
		return nil
	}
	out := *rec
	if rec.Payload != nil {
		out.Payload = append(make([]byte, 0, len(rec.Payload)), rec.Payload...)
	}
	if rec.SymbolBins != nil {
		out.SymbolBins = append(make([]int, 0, len(rec.SymbolBins)), rec.SymbolBins...)
	}
	out.Concentrations = copyFloats(rec.Concentrations)
	out.WideConcentrations = copyFloats(rec.WideConcentrations)
	return &out
}

func copyFloats(s []float64) []float64 {
	if s == nil {
		return nil
	}
	return append(make([]float64, 0, len(s)), s...)
}
