package zigbee

// frameArena is the receiver-owned backing store for everything a decoded
// Reception exposes: chip streams, despread results, packed bytes, and
// the Reception/RecoveredChips structs themselves. Entry points
// (ReceiveAll, DecodeAt, Receive) reset the arena once and each decoded
// frame carves what it needs, so the steady-state decode path allocates
// nothing once the arena has warmed to the session's frame sizes.
//
// Growth rule: when a backing slice runs out mid-use, the arena swaps in
// a fresh, larger array WITHOUT copying — slices carved earlier keep the
// old array, which the garbage collector retains for exactly as long as
// the carved views live. That keeps every Reception from one ReceiveAll
// call simultaneously valid while the next reset reclaims whichever
// backing generation is current.
type frameArena struct {
	f64   []float64 // chip streams: soft, peak, recovered, discriminator
	res   []DespreadResult
	bytes []byte       // packed header/frame bytes (PSDU is a view)
	slots []frameSlot  // Reception + RecoveredChips storage
	outs  []*Reception // the slice ReceiveAll returns
}

// frameSlot co-locates a Reception with its RecoveredChips so linking the
// two costs no extra allocation.
type frameSlot struct {
	rec Reception
	rc  RecoveredChips
}

// reset reclaims the arena for a new entry-point call. Receptions carved
// before the reset are invalidated (their storage will be overwritten).
func (a *frameArena) reset() {
	a.f64 = a.f64[:0]
	a.res = a.res[:0]
	a.bytes = a.bytes[:0]
	a.slots = a.slots[:0]
	a.outs = a.outs[:0]
}

const arenaMinFloats = 4096

// floats carves n float64s. The carve is full-length (callers overwrite
// every element before exposing it) and capacity-clipped so appends can
// never bleed into the next carve.
func (a *frameArena) floats(n int) []float64 {
	if len(a.f64)+n > cap(a.f64) {
		c := 2 * (len(a.f64) + n)
		if c < arenaMinFloats {
			c = arenaMinFloats
		}
		a.f64 = make([]float64, 0, c) // fresh backing; old carves keep the old array
	}
	off := len(a.f64)
	a.f64 = a.f64[:off+n]
	return a.f64[off : off+n : off+n]
}

// results carves n despread results (fully overwritten by the despreader).
func (a *frameArena) results(n int) []DespreadResult {
	if len(a.res)+n > cap(a.res) {
		c := 2 * (len(a.res) + n)
		if c < 512 {
			c = 512
		}
		a.res = make([]DespreadResult, 0, c)
	}
	off := len(a.res)
	a.res = a.res[:off+n]
	return a.res[off : off+n : off+n]
}

// byteBuf carves n bytes (fully overwritten by SymbolsToBytesInto).
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

// newFrame carves a zeroed Reception and its companion RecoveredChips.
// The pointers are taken after any growth, and growth never copies, so
// previously returned pointers stay valid.
func (a *frameArena) newFrame() (*Reception, *RecoveredChips) {
	if len(a.slots) == cap(a.slots) {
		c := 2 * len(a.slots)
		if c < 8 {
			c = 8
		}
		a.slots = make([]frameSlot, 0, c)
	}
	a.slots = a.slots[:len(a.slots)+1]
	s := &a.slots[len(a.slots)-1]
	s.rec = Reception{}
	s.rc = RecoveredChips{}
	return &s.rec, &s.rc
}

// Copy returns a deep copy of the Reception with freshly allocated
// backing for every slice, so it stays valid across later receiver
// calls. Callers that keep a scratch-backed Reception (from ReceiveAll,
// DecodeAt) beyond the receiver's next decode must copy it first.
func (rec *Reception) Copy() *Reception {
	if rec == nil {
		return nil
	}
	out := *rec
	out.PSDU = copyBytes(rec.PSDU)
	out.SoftChips = copyFloats(rec.SoftChips)
	out.PeakChips = copyFloats(rec.PeakChips)
	out.DiscriminatorChips = copyFloats(rec.DiscriminatorChips)
	if rec.RecoveredChips != nil {
		out.RecoveredChips = &RecoveredChips{
			Soft:   copyFloats(rec.RecoveredChips.Soft),
			Timing: copyFloats(rec.RecoveredChips.Timing),
		}
	}
	if rec.Results != nil {
		out.Results = append(make([]DespreadResult, 0, len(rec.Results)), rec.Results...)
	}
	return &out
}

func copyFloats(s []float64) []float64 {
	if s == nil {
		return nil
	}
	return append(make([]float64, 0, len(s)), s...)
}

func copyBytes(s []byte) []byte {
	if s == nil {
		return nil
	}
	return append(make([]byte, 0, len(s)), s...)
}
