package calib

import (
	"math"
	"testing"
	"time"

	"hideseek/internal/obs"
)

// fakeClock is a mutable test clock for Config.Now.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestFitBoundarySeparated(t *testing.T) {
	for _, tc := range []struct {
		auth, emul []float64
		aMax, eMin float64
	}{
		{[]float64{0.01, 0.02, 0.03, 0.05}, []float64{0.40, 0.45, 0.55, 0.60}, 0.05, 0.40},
		{[]float64{0.1, 0.2, 0.15}, []float64{1.5, 1.7, 1.6}, 0.2, 1.5}, // unsorted input
	} {
		cut, cost, err := FitBoundary(tc.auth, tc.emul)
		if err != nil {
			t.Fatal(err)
		}
		if cost != 0 {
			t.Fatalf("separated classes: cost %v, want 0", cost)
		}
		// The minimizing plateau spans [aMax, eMin); its midpoint keeps
		// equal margin to both classes, bit for bit the midpoint rule.
		if want := (tc.aMax + tc.eMin) / 2; cut != want {
			t.Fatalf("cut %v, want plateau midpoint %v", cut, want)
		}
	}
}

func TestFitBoundaryOverlap(t *testing.T) {
	// One authentic outlier above the emulated minimum: the best cut
	// sacrifices exactly that sample (cost 1/4).
	auth := []float64{0.01, 0.02, 0.03, 0.50}
	emul := []float64{0.40, 0.45, 0.55, 0.60}
	cut, cost, err := FitBoundary(auth, emul)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-0.25) > 1e-9 {
		t.Fatalf("cost %v, want 0.25", cost)
	}
	if cut <= 0.03 || cut >= 0.40 {
		t.Fatalf("cut %v outside (0.03, 0.40)", cut)
	}
}

func TestFitBoundaryEmpty(t *testing.T) {
	if _, _, err := FitBoundary(nil, []float64{1}); err == nil {
		t.Fatal("empty authentic set: want error")
	}
	if _, _, err := FitBoundary([]float64{1}, nil); err == nil {
		t.Fatal("empty emulated set: want error")
	}
}

func TestFitBinnedMatchesRaw(t *testing.T) {
	const bins, max = 256, 2.5
	authRaw := []float64{0.04, 0.05, 0.06, 0.07}
	emulRaw := []float64{0.80, 0.90, 1.00, 1.10}
	auth := make([]uint64, bins)
	emul := make([]uint64, bins)
	bucket := func(v float64) int { return int(v / max * bins) }
	for _, v := range authRaw {
		auth[bucket(v)]++
	}
	for _, v := range emulRaw {
		emul[bucket(v)]++
	}
	cut, cost := fitBinned(auth, emul, 4, 4, max)
	if cost != 0 {
		t.Fatalf("cost %v, want 0", cost)
	}
	rawCut, _, err := FitBoundary(authRaw, emulRaw)
	if err != nil {
		t.Fatal(err)
	}
	// Binned and raw cuts agree to within one bin width on each side of
	// the plateau.
	if math.Abs(cut-rawCut) > 2*max/bins {
		t.Fatalf("binned cut %v vs raw cut %v: differ by more than 2 bins", cut, rawCut)
	}
}

func TestQuantileOf(t *testing.T) {
	if got := quantileOf([]uint64{0, 0, 0}, 0, 0.5, 3.0); got != 0 {
		t.Fatalf("empty vector: quantile %v, want 0", got)
	}
	// 10 samples in bin 1 of 4 over [0, 4): every quantile is bin 1's
	// midpoint 1.5.
	counts := []uint64{0, 10, 0, 0}
	for _, q := range []float64{0.05, 0.50, 0.95} {
		if got := quantileOf(counts, 10, q, 4.0); math.Abs(got-1.5) > 1e-9 {
			t.Fatalf("q=%v: got %v, want 1.5", q, got)
		}
	}
	// Half in bin 0, half in bin 3: p50 falls in bin 0, p95 in bin 3.
	counts = []uint64{5, 0, 0, 5}
	if got := quantileOf(counts, 10, 0.50, 4.0); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("p50 %v, want 0.5", got)
	}
	if got := quantileOf(counts, 10, 0.95, 4.0); math.Abs(got-3.5) > 1e-9 {
		t.Fatalf("p95 %v, want 3.5", got)
	}
}

func TestWindowDistStaleRing(t *testing.T) {
	clk := newFakeClock()
	w := newWindowDist(8, 1.0)
	for i := 0; i < 20; i++ {
		w.observe(0.3, clk.t)
	}
	counts := make([]uint64, 8)
	if n := w.merged(counts, clk.t, obs.WindowLong); n != 20 {
		t.Fatalf("fresh ring: merged %d samples, want 20", n)
	}
	// Advance past the ring's whole reach: every slot is stale and must
	// contribute nothing.
	clk.advance(obs.WindowLong + 10*time.Second)
	if n := w.merged(counts, clk.t, obs.WindowLong); n != 0 {
		t.Fatalf("stale ring: merged %d samples, want 0", n)
	}
	for b, c := range counts {
		if c != 0 {
			t.Fatalf("stale ring: bin %d holds %d stale counts", b, c)
		}
	}
	if n := w.total(clk.t, obs.WindowLong); n != 0 {
		t.Fatalf("stale ring: total %d, want 0", n)
	}
}

func testConfig(clk *fakeClock) Config {
	return Config{
		WarmupPerClass:  8,
		MinWindowCount:  4,
		DriftCheckEvery: time.Millisecond,
		Now:             clk.now,
	}
}

// warmUp feeds alternating labeled samples until the class fits.
func warmUp(t *testing.T, c *Calibrator, clk *fakeClock, authD2, emulD2 float64) {
	t.Helper()
	for i := 0; i < 8; i++ {
		if ev := c.Observe(authD2, LabelAuthentic); ev != nil {
			t.Fatalf("warmup sample %d raised drift: %v", i, ev)
		}
		if ev := c.Observe(emulD2, LabelEmulated); ev != nil {
			t.Fatalf("warmup sample %d raised drift: %v", i, ev)
		}
		clk.advance(10 * time.Millisecond)
	}
	if !c.Calibrated() {
		t.Fatal("warmup complete but class not calibrated")
	}
}

func TestWarmupFitsBetweenPopulations(t *testing.T) {
	clk := newFakeClock()
	m, err := NewManager(testConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	c := m.Class("zigbee", 0.2)
	if c.Calibrated() {
		t.Fatal("fresh class claims to be calibrated")
	}
	if thr, src := c.Threshold(); thr != 0.2 || src != SourceDefault {
		t.Fatalf("warmup threshold (%v, %v), want fallback (0.2, default)", thr, src)
	}
	warmUp(t, c, clk, 0.05, 0.80)
	thr, src := c.Threshold()
	if src != SourceFitted {
		t.Fatalf("post-fit source %v, want fitted", src)
	}
	if thr <= 0.05 || thr >= 0.80 {
		t.Fatalf("fitted threshold %v not between the populations (0.05, 0.80)", thr)
	}
	st := c.Status()
	if st.State != "calibrated" || st.Fit == nil {
		t.Fatalf("status %+v: want calibrated state with fit", st)
	}
	if st.Fit.OverlapCost != 0 {
		t.Fatalf("overlap cost %v, want 0 for separated warmup", st.Fit.OverlapCost)
	}
	if st.Fit.AuthN != 8 || st.Fit.EmulN != 8 {
		t.Fatalf("fit consumed (%d, %d) samples, want (8, 8)", st.Fit.AuthN, st.Fit.EmulN)
	}
}

func TestLabelNoneDiscarded(t *testing.T) {
	clk := newFakeClock()
	m, _ := NewManager(testConfig(clk))
	c := m.Class("zigbee", 0.2)
	for i := 0; i < 64; i++ {
		c.Observe(0.05, LabelNone)
	}
	if c.Calibrated() {
		t.Fatal("unlabeled samples completed warmup")
	}
	if st := c.Status(); st.AuthWindow != 0 || st.EmulWindow != 0 {
		t.Fatalf("unlabeled samples counted: %+v", st)
	}
}

func TestDriftEventAndThrottle(t *testing.T) {
	clk := newFakeClock()
	m, _ := NewManager(testConfig(clk))
	c := m.Class("zigbee", 0.2)
	warmUp(t, c, clk, 0.05, 0.80)
	baseline := c.Status().Fit.AuthP50

	// Age the warmup samples out of the drift window, then feed authentic
	// traffic whose D² has walked an order of magnitude above baseline.
	clk.advance(obs.WindowLong + 10*time.Second)
	var ev *DriftEvent
	for i := 0; i < 8; i++ {
		if got := c.Observe(0.50, LabelAuthentic); got != nil {
			ev = got
		}
		clk.advance(2 * time.Millisecond)
	}
	if ev == nil {
		t.Fatal("shifted authentic quantiles raised no drift event")
	}
	if ev.Class != "zigbee" {
		t.Fatalf("drift class %q, want zigbee", ev.Class)
	}
	if ev.Metric != "p50" && ev.Metric != "p95" {
		t.Fatalf("drift metric %q", ev.Metric)
	}
	if ev.Shift <= 0.5 {
		t.Fatalf("shift %v, want > DriftFrac 0.5", ev.Shift)
	}
	if ev.Baseline != baseline && ev.Metric == "p50" {
		t.Fatalf("baseline %v, want fit AuthP50 %v", ev.Baseline, baseline)
	}
	if c.DriftTotal() == 0 {
		t.Fatal("drift total not incremented")
	}
	if st := c.Status(); st.LastDrift == nil {
		t.Fatal("status lost the last drift event")
	}

	// Throttle: the first call may evaluate (the clock moved since the
	// last check), but a second call at the same instant must not —
	// DriftCheckEvery has not elapsed.
	c.Observe(0.50, LabelAuthentic)
	if got := c.Observe(0.50, LabelAuthentic); got != nil {
		t.Fatal("drift re-evaluated inside the throttle window")
	}
}

// TestThinWindowDoesNotRestartThrottle: a drift check that bails out on
// a window thinner than MinWindowCount must not start a new
// DriftCheckEvery period. Nine drifted samples arrive 2 ms apart (each
// check sees a thin window), then seven more land 10 µs apart, inside
// one throttle period; the check on the sixteenth sample must evaluate
// the now-full window and raise drift.
func TestThinWindowDoesNotRestartThrottle(t *testing.T) {
	clk := newFakeClock()
	m, _ := NewManager(Config{WarmupPerClass: 6, DriftCheckEvery: time.Millisecond, Now: clk.now})
	c := m.Class("zigbee", 0.2)
	warmUp(t, c, clk, 0.05, 0.80)
	clk.advance(obs.WindowLong + 10*time.Second)
	for i := 0; i < 9; i++ {
		c.Observe(0.50, LabelAuthentic)
		clk.advance(2 * time.Millisecond)
	}
	for i := 0; i < 7; i++ {
		c.Observe(0.50, LabelAuthentic)
		clk.advance(10 * time.Microsecond)
	}
	if got := c.DriftTotal(); got != 1 {
		t.Fatalf("drift total %d after a full drifted window, want 1", got)
	}
}

func TestStableTrafficNoDrift(t *testing.T) {
	clk := newFakeClock()
	m, _ := NewManager(testConfig(clk))
	c := m.Class("zigbee", 0.2)
	warmUp(t, c, clk, 0.05, 0.80)
	for i := 0; i < 32; i++ {
		if ev := c.Observe(0.05, LabelAuthentic); ev != nil {
			t.Fatalf("stable traffic raised drift: %v", ev)
		}
		clk.advance(2 * time.Millisecond)
	}
	if c.DriftTotal() != 0 {
		t.Fatalf("drift total %d on stable traffic", c.DriftTotal())
	}
}

// TestCalibratorObserveZeroAllocs: once every ring slot holds its bins,
// the per-frame Observe path — slot recording, the windowed merge and the
// drift check — allocates nothing.
func TestCalibratorObserveZeroAllocs(t *testing.T) {
	clk := newFakeClock()
	m, _ := NewManager(testConfig(clk))
	c := m.Class("zigbee", 0.2)
	warmUp(t, c, clk, 0.05, 0.80)
	// Each ring slot gets its bins on first use: touch every slot of both
	// distributions before measuring.
	for i := 0; i < 12; i++ {
		c.Observe(0.05, LabelAuthentic)
		c.Observe(0.80, LabelEmulated)
		clk.advance(10 * time.Second)
	}
	drifted := false
	allocs := testing.AllocsPerRun(100, func() {
		drifted = drifted || c.Observe(0.05, LabelAuthentic) != nil
		drifted = drifted || c.Observe(0.80, LabelEmulated) != nil
		clk.advance(time.Second)
	})
	if drifted {
		t.Fatal("stable traffic raised a drift event")
	}
	if allocs != 0 {
		t.Fatalf("Calibrator.Observe allocates %v per frame, want 0", allocs)
	}
}

func TestOverridePrecedenceAndRearm(t *testing.T) {
	clk := newFakeClock()
	m, _ := NewManager(testConfig(clk))
	c := m.Class("zigbee", 0.2)
	warmUp(t, c, clk, 0.05, 0.80)

	if err := c.SetOverride(0); err == nil {
		t.Fatal("zero override accepted")
	}
	if err := c.SetOverride(0.33); err != nil {
		t.Fatal(err)
	}
	if thr, src := c.Threshold(); thr != 0.33 || src != SourceOperator {
		t.Fatalf("override threshold (%v, %v), want (0.33, operator)", thr, src)
	}
	c.ClearOverride()
	if _, src := c.Threshold(); src != SourceFitted {
		t.Fatalf("cleared override: source %v, want fitted", src)
	}

	// Rearm drops the fit and both rings; the fallback applies again and
	// a fresh warmup can complete.
	c.Rearm()
	if c.Calibrated() {
		t.Fatal("rearmed class still calibrated")
	}
	if thr, src := c.Threshold(); thr != 0.2 || src != SourceDefault {
		t.Fatalf("rearmed threshold (%v, %v), want (0.2, default)", thr, src)
	}
	warmUp(t, c, clk, 0.05, 0.80)

	// An override set before Rearm keeps precedence through warmup.
	if err := c.SetOverride(0.4); err != nil {
		t.Fatal(err)
	}
	c.Rearm()
	if thr, src := c.Threshold(); thr != 0.4 || src != SourceOperator {
		t.Fatalf("override dropped by rearm: (%v, %v)", thr, src)
	}
}

func TestManagerClassesAndStatus(t *testing.T) {
	clk := newFakeClock()
	m, _ := NewManager(testConfig(clk))
	z := m.Class("zigbee", 0.2)
	if again := m.Class("zigbee", 0.9); again != z {
		t.Fatal("Class created a second calibrator for the same class")
	}
	if thr, _ := z.Threshold(); thr != 0.2 {
		t.Fatalf("second Class call overwrote the fallback: %v", thr)
	}
	m.Class("lora", 0.05)
	if _, ok := m.Lookup("zigbee"); !ok {
		t.Fatal("Lookup missed an existing class")
	}
	if _, ok := m.Lookup("nope"); ok {
		t.Fatal("Lookup invented a class")
	}
	st := m.Status()
	if len(st) != 2 || st[0].Class != "lora" || st[1].Class != "zigbee" {
		t.Fatalf("status not sorted by class: %+v", st)
	}
}

func TestConfigValidate(t *testing.T) {
	if _, err := NewManager(Config{Bins: 4}); err == nil {
		t.Fatal("Bins 4 accepted")
	}
	if _, err := NewManager(Config{DriftFrac: -1}); err == nil {
		t.Fatal("negative DriftFrac accepted")
	}
	if _, err := NewManager(Config{}); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
}

func TestParseLabelAndSourceString(t *testing.T) {
	for s, want := range map[string]Label{"authentic": LabelAuthentic, "emulated": LabelEmulated, "": LabelNone} {
		got, err := ParseLabel(s)
		if err != nil || got != want {
			t.Fatalf("ParseLabel(%q) = (%v, %v), want %v", s, got, err, want)
		}
	}
	if _, err := ParseLabel("bogus"); err == nil {
		t.Fatal("bogus label accepted")
	}
	for src, want := range map[Source]string{SourceDefault: "default", SourceFitted: "fitted", SourceOperator: "operator"} {
		if got := src.String(); got != want {
			t.Fatalf("Source(%d).String() = %q, want %q", src, got, want)
		}
	}
}
