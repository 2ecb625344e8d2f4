package zigbee

// frameArena is the receiver-owned backing store for everything a decoded
// Reception exposes: chip streams, despread results, packed bytes, and
// the Reception/RecoveredChips structs themselves. Entry points
// (ReceiveAll, DecodeAt, Receive) reset the arena once and each decoded
// frame carves what it needs, so the steady-state decode path allocates
// nothing once the arena has warmed to the session's frame sizes.
//
// Every field is carved with dsp.Carve, whose growth rule swaps in a
// fresh array WITHOUT copying: slices carved earlier keep the old array,
// which the garbage collector retains for exactly as long as the carved
// views live. That keeps every Reception from one ReceiveAll call
// simultaneously valid while the next reset reclaims whichever backing
// generation is current. A Reception is carved as a zeroed frameSlot, so
// the pointers into it stay valid across growth too.
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

// Minimum capacities of a fresh arena generation (see dsp.Carve).
const (
	arenaMinFloats  = 4096
	arenaMinResults = 512
	arenaMinBytes   = 512
	arenaMinSlots   = 8
)

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
