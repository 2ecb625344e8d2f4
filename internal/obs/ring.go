package obs

import "time"

// Rolling-window geometry: a ring of 12 interval slots of 10 s each, so a
// histogram can answer "last 60 s" and "last 2 min" quantiles while a
// long-running daemon keeps its cumulative-since-boot series. Memory is
// fixed: windowSlots slots per ring, reused forever.
const (
	windowSlots   = 12
	windowSlotDur = 10 * time.Second
	// WindowShort and WindowLong are the two window widths snapshots and
	// endpoints report (see Snapshot.Windows and WindowedStats);
	// WindowLong is the ring's whole reach.
	WindowShort = 60 * time.Second
	WindowLong  = windowSlots * windowSlotDur
)

// EpochRing is the rolling-window ring shared by every windowed
// instrument: windowSlots slots of type S, each stamped with the absolute
// 10 s interval (unix time / windowSlotDur) it holds. A slot whose stamp
// is stale is handed back for reuse when its ring position comes around
// again, so the ring needs no ticker goroutine and never grows. The zero
// value is an empty ring. EpochRing does not lock; its owner guards it.
type EpochRing[S any] struct {
	slots [windowSlots]epochSlot[S]
}

type epochSlot[S any] struct {
	epoch int64
	used  bool
	v     S
}

func epochOf(t time.Time) int64 { return t.UnixNano() / int64(windowSlotDur) }

// Slot returns the slot for the interval containing now, stamping it with
// that interval. stale reports that the slot was empty or held another
// interval: the caller must reset *S before recording into it. A stale
// slot keeps its old contents, so S may reuse its storage.
func (r *EpochRing[S]) Slot(now time.Time) (s *S, stale bool) {
	epoch := epochOf(now)
	sl := &r.slots[epoch%windowSlots]
	stale = !sl.used || sl.epoch != epoch
	sl.epoch, sl.used = epoch, true
	return &sl.v, stale
}

// Each calls f on every slot whose interval falls inside the last d
// ending at now. d is rounded up to whole intervals and clamped to
// WindowLong; slots stamped after now (a wall clock that stepped back)
// or before the window are skipped, so a fully stale ring visits nothing.
func (r *EpochRing[S]) Each(now time.Time, d time.Duration, f func(*S)) {
	if d <= 0 {
		return
	}
	if d > WindowLong {
		d = WindowLong
	}
	newest := epochOf(now)
	oldest := newest - int64((d+windowSlotDur-1)/windowSlotDur) + 1
	for i := range r.slots {
		sl := &r.slots[i]
		if sl.used && sl.epoch >= oldest && sl.epoch <= newest {
			f(&sl.v)
		}
	}
}

// Clear empties the ring; slot storage is kept for reuse.
func (r *EpochRing[S]) Clear() {
	for i := range r.slots {
		r.slots[i].used = false
	}
}
