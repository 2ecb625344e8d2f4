package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// preambleRef is a preamble-like reference: its first 40 samples repeat
// four times, then 40 more follow, so partial overlaps cross a 0.5
// threshold before the frame start and the refinement has work to do.
func preambleRef(rng *rand.Rand) []complex128 {
	base := randComplexSlice(rng, 40)
	var ref []complex128
	for r := 0; r < 4; r++ {
		ref = append(ref, base...)
	}
	return append(ref, randComplexSlice(rng, 40)...)
}

// resumeWalk drives resumed the way the stream scanner drives its
// receiver over the capture x: the window x[lo:hi] grows by the chunk
// sizes ops pick, and every search is told the window's start first. Each
// search must return what fresh returns on the same window: lag, peak
// bits and found flag. A miss keeps only the reference overlap (discard
// len−M+1). A crossing is waited on (the window grows and is searched
// again), rejected (discard start+M) or dispatched (discard past a
// 3M-sample frame), as ops pick; past the last op comes EOF, where the
// rest is searched until a miss or until it is shorter than the
// reference. resumed must screen each lag at most once. The walk returns
// the absolute starts of the crossings it found.
func resumeWalk(t testing.TB, resumed, fresh *Correlator, x []complex128, ops []byte, threshold float64) []int {
	t.Helper()
	m := len(resumed.ref)
	chunks := [8]int{1, 7, m - 1, m, m + 1, 2*m + 3, 5 * m, 13*m + 5}
	var starts []int
	lo, hi := 0, 0
	distinct, seen := 0, 0 // lags any window held; one past the last of them
	search := func() (int, bool) {
		w := x[lo:hi]
		resumed.Resume(int64(lo))
		lag, peak, found := resumed.FirstCrossing(w, threshold)
		wantLag, wantPeak, wantFound := fresh.FirstCrossing(w, threshold)
		if lag != wantLag || math.Float64bits(peak) != math.Float64bits(wantPeak) || found != wantFound {
			t.Fatalf("window [%d, %d): resumed (%d, %v, %v), fresh (%d, %v, %v)",
				lo, hi, lag, peak, found, wantLag, wantPeak, wantFound)
		}
		end := hi - m + 1
		distinct += end - max(lo, seen)
		seen = end
		if found {
			starts = append(starts, lo+lag)
		}
		return lag, found
	}
	discard := func(action byte, lag int) {
		switch action {
		case 2:
			lo += lag + m
		case 3:
			lo = min(hi, lo+lag+3*m)
		}
	}
	for _, op := range ops {
		hi = min(len(x), hi+chunks[op&7])
		if hi-lo < m {
			continue
		}
		if lag, found := search(); !found {
			lo = hi - m + 1
		} else {
			discard(op>>3&3, lag) // 0 and 1 wait
		}
	}
	hi = len(x)
	for i := 0; hi-lo >= m; i++ {
		lag, found := search()
		if !found {
			break
		}
		discard(byte(2+i%2), lag)
	}
	if resumed.screened > distinct {
		t.Errorf("resumed correlator screened %d lags; the windows held %d", resumed.screened, distinct)
	}
	return starts
}

// TestFirstCrossingResumeMatchesFresh walks scanner-like window sequences
// over captures with three frames, some holding NaN or ±Inf samples, and
// requires every resumed search to return the fresh search's result on
// both paths, screening each lag at most once. On the walk that waits on
// every crossing, that is at most half the lags fresh searches screen.
func TestFirstCrossingResumeMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	ref := preambleRef(rng)
	clean := syncCapture(rng, 6000, 900, ref, 0.05)
	for _, at := range []int{2300, 4100} {
		for i, v := range ref {
			clean[at+i] += v
		}
	}
	spoil := map[string]map[int]complex128{
		"clean":            nil,
		"nan in frame":     {950: complex(math.NaN(), 0)},
		"inf before frame": {2299: complex(0, math.Inf(1)), 4000: complex(math.Inf(-1), 0)},
		"overflow, nans":   {10: complex(1e200, 0), 3000: complex(math.NaN(), 1), 4150: complex(0, math.NaN())},
	}
	for name, bad := range spoil {
		x := append([]complex128(nil), clean...)
		for i, v := range bad {
			x[i] = v
		}
		for path, c := range syncCorrelators(t, ref) {
			for walk := 0; walk < 12; walk++ {
				ops := make([]byte, 40)
				rng.Read(ops)
				if walk == 0 {
					for i := range ops {
						ops[i] = 5 // a 2M+3 chunk, waiting on every crossing
					}
				}
				resumed, fresh := c.Clone(), c.Clone()
				t.Run(fmt.Sprintf("%s/%s/%d", name, path, walk), func(t *testing.T) {
					resumeWalk(t, resumed, fresh, x, ops, 0.5)
					if walk == 0 && path == "fft" && resumed.screened*2 > fresh.screened {
						t.Errorf("resumed screened %d lags, fresh %d: want at most half", resumed.screened, fresh.screened)
					}
				})
			}
		}
	}
}

// TestFirstCrossingResumeAfterLoudFrame follows a loud frame (1e6) with
// over 200 blocks of quiet noise (1e-3) and then a frame at the noise
// level. Screen values start their energy sum afresh in every block, so
// the loud frame's rounding cannot reach the quiet one: a search that
// starts inside the loud frame agrees with the direct path, and the
// resumed walk finds both frames exactly as fresh searches do. With one
// energy recurrence across the whole search, the search cut 40 samples
// into the loud frame missed the quiet one.
func TestFirstCrossingResumeAfterLoudFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	ref := randComplexSlice(rng, 64) // N = 128: 65 lags per block
	const loud, quiet = 100, 100 + 64 + 210*65
	x := syncCapture(rng, quiet+2000, quiet, nil, 1e-3)
	for i, v := range ref {
		x[loud+i] += v * 1e6
		x[quiet+i] += v * 1e-3
	}
	cs := syncCorrelators(t, ref)
	for _, cut := range []int{loud + 40, loud + 64} {
		lag, _, found := cs["fft"].FirstCrossing(x[cut:], 0.5)
		if !found || lag != quiet-cut {
			t.Errorf("cut %d: FirstCrossing = (%d, %v), want the quiet frame at %d", cut, lag, found, quiet-cut)
		}
		assertSyncParity(t, cs, x[cut:], 0.5, fmt.Sprintf("cut %d", cut))
	}
	for path, c := range cs {
		for _, chunk := range []byte{3, 6, 7} { // M, 5M and 13M+5 samples
			ops := make([]byte, len(x)/64)
			for i := range ops {
				ops[i] = chunk | 3<<3 // dispatch every crossing
			}
			starts := resumeWalk(t, c.Clone(), c.Clone(), x, ops, 0.5)
			if len(starts) != 2 || starts[0] != loud || starts[1] != quiet {
				t.Errorf("%s chunk op %d: frames at %v, want [%d %d]", path, chunk, starts, loud, quiet)
			}
		}
	}
}

// TestFirstCrossingFreshDropsCursor pins that only a Resume lets a search
// reuse screen values. After a resumed walk over one capture, a second
// capture searched at the same offsets holds a frame where the first
// held noise. A search without Resume must find it, and so must a
// resumed search after any search without Resume, which drops what the
// correlator kept.
func TestFirstCrossingFreshDropsCursor(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	ref := preambleRef(rng)
	first := syncCapture(rng, 3000, 500, ref, 0.05)
	second := syncCapture(rng, 3000, 2000, ref, 0.05)
	for path, c := range syncCorrelators(t, ref) {
		fresh := c.Clone()
		walked := func() (*Correlator, int) {
			resumed := c.Clone()
			resumeWalk(t, resumed, fresh, first[:2600], []byte{6, 6, 6, 6, 6, 6}, 0.5)
			lo := int(resumed.cur.at)
			if lo > 2000 || lo+resumed.cur.done <= 2000 {
				t.Fatalf("%s: walk left cursor %+v, want screen values kept for lag 2000", path, resumed.cur)
			}
			return resumed, lo
		}
		resumed, lo := walked()
		want, wantPeak, _ := fresh.FirstCrossing(second[lo:], 0.5)
		if want != 2000-lo {
			t.Fatalf("%s: fresh search found %d, want the frame at %d", path, want, 2000-lo)
		}
		lag, peak, found := resumed.FirstCrossing(second[lo:], 0.5)
		if !found || lag != want || peak != wantPeak {
			t.Errorf("%s: search without Resume = (%d, %v, %v), want (%d, %v, true)", path, lag, peak, found, want, wantPeak)
		}
		resumed, lo = walked()
		resumed.FirstCrossing(first[lo:lo+len(ref)], 0.5) // fresh, one lag
		resumed.Resume(int64(lo))
		lag, peak, found = resumed.FirstCrossing(second[lo:], 0.5)
		if !found || lag != want || peak != wantPeak {
			t.Errorf("%s: Resume after a fresh search = (%d, %v, %v), want (%d, %v, true)", path, lag, peak, found, want, wantPeak)
		}
	}
}

// resumeValues are the sample values FuzzFirstCrossingResume writes: the
// non-finite ones the screen reads as zero, zero, and finite values of
// at most moderate size. A finite but huge sample swamps the rounding of
// its whole block and can move a fresh search's result on its own (see
// DESIGN §10), so the fuzz leaves those out.
var resumeValues = [16]complex128{
	complex(math.NaN(), 0), complex(0, math.Inf(1)), complex(math.Inf(-1), 0), complex(1e200, 0),
	0, 1e-3, complex(0, -1e-3), 0.05,
	complex(-0.5, 0.5), 1, complex(0, 2), complex(-3, -3),
	8, complex(0, -8), complex(6, 6), complex(math.NaN(), math.NaN()),
}

// FuzzFirstCrossingResume fuzzes the scanner's window sequence (ops, see
// resumeWalk) and the samples of a three-frame capture (each 3-byte
// group of edits writes one of resumeValues at a position, or adds one
// more copy of the reference there), and requires every resumed search
// to return the fresh search's result on both paths. Seeds are in
// testdata/fuzz/FuzzFirstCrossingResume.
func FuzzFirstCrossingResume(f *testing.F) {
	rng := rand.New(rand.NewSource(104))
	ref := preambleRef(rng)
	clean := syncCapture(rng, 4000, 700, ref, 0.05)
	for i, v := range ref {
		clean[2600+i] += v
	}
	cs := syncCorrelators(f, ref)
	f.Fuzz(func(t *testing.T, ops, edits []byte) {
		if len(ops) > 200 || len(edits) > 300 {
			return
		}
		x := append([]complex128(nil), clean...)
		for i := 0; i+2 < len(edits); i += 3 {
			pos := (int(edits[i])<<8 | int(edits[i+1])) % len(x)
			if kind := edits[i+2]; kind&16 == 0 {
				x[pos] = resumeValues[kind&15]
			} else {
				for j, v := range ref[:min(len(ref), len(x)-pos)] {
					x[pos+j] += v
				}
			}
		}
		for _, c := range cs {
			resumeWalk(t, c.Clone(), c.Clone(), x, ops, 0.5)
		}
	})
}
