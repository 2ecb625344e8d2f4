package lora

// frameArena is the receiver-owned backing store for everything a decoded
// Reception exposes: symbol bins, concentration tracks, payload bytes, and
// the Reception structs themselves. Entry points (ReceiveAll, DecodeAt,
// FrameSpan, Receive) reset the arena once and each decoded frame carves
// what it needs, so the steady-state decode path allocates nothing once
// the arena has warmed to the session's frame sizes.
//
// Every field is carved with dsp.Carve, whose growth rule swaps in a
// fresh array WITHOUT copying: slices carved earlier keep the old array,
// which the garbage collector retains for exactly as long as the carved
// views live. That keeps every Reception from one ReceiveAll call
// simultaneously valid while the next reset reclaims whichever backing
// generation is current. The symbol tracks are carved at their largest
// size and resliced to length 0, so the decode appends into them.
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

// Minimum capacities of a fresh arena generation (see dsp.Carve).
const (
	arenaMinInts   = 1024
	arenaMinFloats = 2048
	arenaMinBytes  = 512
	arenaMinSlots  = 8
)

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
