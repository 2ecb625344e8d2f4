package alert

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"hideseek/internal/obs"
)

// State is a rule's position in the alert lifecycle.
type State int

const (
	StateInactive State = iota
	StatePending
	StateFiring
	StateResolved
)

func (s State) String() string {
	switch s {
	case StateInactive:
		return "inactive"
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	case StateResolved:
		return "resolved"
	}
	return "unknown"
}

// Transition is one recorded state change, kept in the history ring.
type Transition struct {
	Rule  string    `json:"rule"`
	From  string    `json:"from"`
	To    string    `json:"to"`
	At    time.Time `json:"at"`
	Value float64   `json:"value"`
}

// RuleStatus is the /v1/alerts view of one rule: the manifest sample
// plus the compiled objective, for operators reading the endpoint cold.
type RuleStatus struct {
	obs.AlertSample
	Expr   string `json:"expr"`
	Op     string `json:"op"`
	Window string `json:"window"`
	Slow   string `json:"slow_window"`
}

// Status is the full /v1/alerts payload.
type Status struct {
	Rules   []RuleStatus `json:"rules"`
	History []Transition `json:"history,omitempty"`
}

// Config configures an Engine.
type Config struct {
	// Registry to evaluate against (obs.Std() when nil).
	Registry *obs.Registry
	// Rules to run (DefaultRules() when empty).
	Rules []Rule
	// Every is the evaluation period (1s when 0).
	Every time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
}

// historyCap is the transition ring capacity.
const historyCap = 256

// compiledRule is a rule plus its live state.
type compiledRule struct {
	Rule
	slow       time.Duration // derived slow window
	state      State
	since      time.Time // when the current state was entered
	pendingAt  time.Time // when the current breach streak began
	healthyAt  time.Time // start of the continuous margin-healthy streak (firing only)
	firedTotal int64
	lastValue  float64 // last fast-window evaluation
}

// counterRing tracks one counter's recent cumulative samples so rate()
// and increase() can diff against the value a window ago. Fixed
// capacity, overwritten in place.
type counterRing struct {
	c   *obs.Counter
	buf []counterSample
	n   int // samples stored (saturates at len(buf))
	w   int // next write index
}

type counterSample struct {
	at time.Time
	v  int64
}

func (r *counterRing) push(at time.Time, v int64) {
	r.buf[r.w] = counterSample{at: at, v: v}
	r.w = (r.w + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// at returns the newest sample no newer than t, falling back to the
// oldest stored sample when the ring does not reach back that far.
// ok is false when the ring is empty.
func (r *counterRing) at(t time.Time) (counterSample, bool) {
	if r.n == 0 {
		return counterSample{}, false
	}
	oldest := (r.w - r.n + len(r.buf)) % len(r.buf)
	best := r.buf[oldest]
	for i := 0; i < r.n; i++ {
		s := r.buf[(oldest+i)%len(r.buf)]
		if s.at.After(t) {
			break
		}
		best = s
	}
	return best, true
}

// Engine evaluates rules against a registry on a fixed period. Create
// with New, then Start to launch the background evaluator; step is
// exported to tests via the in-package seam.
type Engine struct {
	mu      sync.Mutex
	reg     *obs.Registry
	rules   []*compiledRule
	rings   map[string]*counterRing
	every   time.Duration
	now     func() time.Time
	history []Transition
	histCap int
	stop    chan struct{}
	done    chan struct{}
	started bool
	stopped bool

	// evalFn is the expression evaluator, replaceable by tests to drive
	// the state machine deterministically. Returns the value and whether
	// the window held any data (no data is always healthy).
	evalFn func(e *Expr, window time.Duration, now time.Time) (float64, bool)
}

// New compiles the rules and returns a stopped engine.
func New(cfg Config) (*Engine, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Std()
	}
	rules := cfg.Rules
	if len(rules) == 0 {
		rules = DefaultRules()
	}
	every := cfg.Every
	if every <= 0 {
		every = time.Second
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	e := &Engine{
		reg:     reg,
		rings:   map[string]*counterRing{},
		every:   every,
		now:     now,
		histCap: historyCap,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	e.evalFn = e.evalExpr

	seen := map[string]bool{}
	var slowest time.Duration
	for _, r := range rules {
		if seen[r.Name] {
			return nil, fmt.Errorf("alert: duplicate rule %q", r.Name)
		}
		seen[r.Name] = true
		cr := &compiledRule{Rule: r, slow: slowWindow(r.Window)}
		e.rules = append(e.rules, cr)
		if cr.slow > slowest {
			slowest = cr.slow
		}
		for _, name := range exprCounters(r.Expr) {
			if _, ok := e.rings[name]; !ok {
				e.rings[name] = &counterRing{c: reg.Counter(name)}
			}
		}
	}
	// Ring reach: the slowest window plus slack, bounded so a tiny Every
	// cannot balloon memory.
	slots := int(slowest/every) + 2
	if slots < 4 {
		slots = 4
	}
	if slots > 4096 {
		slots = 4096
	}
	for _, r := range e.rings {
		r.buf = make([]counterSample, slots)
	}
	return e, nil
}

// slowWindow derives the confirmation window: twice the fast window,
// capped at the histogram ring's reach.
func slowWindow(fast time.Duration) time.Duration {
	slow := 2 * fast
	if slow > obs.WindowLong {
		slow = obs.WindowLong
	}
	if slow < fast {
		slow = fast
	}
	return slow
}

// exprCounters lists the counter instruments an expression reads.
func exprCounters(x Expr) []string {
	switch x.Kind {
	case KindRate, KindIncrease:
		return []string{x.Counter}
	case KindRatio:
		return []string{x.Counter, x.Denom}
	}
	return nil
}

// Start launches the background evaluator goroutine.
func (e *Engine) Start() {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return
	}
	e.started = true
	e.mu.Unlock()
	go func() {
		defer close(e.done)
		t := time.NewTicker(e.every)
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-t.C:
				e.step(e.now())
			}
		}
	}()
}

// Stop halts the evaluator (idempotent; safe on a nil or never-started
// engine).
func (e *Engine) Stop() {
	if e == nil {
		return
	}
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	started := e.started
	e.mu.Unlock()
	close(e.stop)
	if started {
		<-e.done
	}
}

// step runs one evaluation pass at the given instant.
func (e *Engine) step(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Sample every tracked counter first so all rules this step see the
	// same instant.
	for _, r := range e.rings {
		r.push(now, r.c.Value())
	}
	for _, cr := range e.rules {
		e.stepRule(cr, now)
	}
}

// stepRule evaluates one rule's windows and advances its state machine.
func (e *Engine) stepRule(cr *compiledRule, now time.Time) {
	fastVal, fastHas := e.evalFn(&cr.Expr, cr.Window, now)
	slowVal, slowHas := e.evalFn(&cr.Expr, cr.slow, now)
	cr.lastValue = fastVal

	// A window with no data is healthy: absence of traffic must not
	// page, and quantiles of nothing are meaningless.
	breach := fastHas && !healthy(cr.Op, fastVal, cr.Bound, 0) &&
		slowHas && !healthy(cr.Op, slowVal, cr.Bound, 0)
	calm := (!fastHas || healthy(cr.Op, fastVal, cr.Bound, cr.Margin)) &&
		(!slowHas || healthy(cr.Op, slowVal, cr.Bound, cr.Margin))

	switch cr.state {
	case StateInactive, StateResolved:
		if breach {
			cr.pendingAt = now
			e.transition(cr, StatePending, now)
			if cr.For <= 0 {
				cr.firedTotal++
				cr.healthyAt = time.Time{}
				e.transition(cr, StateFiring, now)
			}
		}
	case StatePending:
		switch {
		case !breach:
			// Flap suppression: the breach did not survive the hold.
			e.transition(cr, StateInactive, now)
		case now.Sub(cr.pendingAt) >= cr.For:
			cr.firedTotal++
			cr.healthyAt = time.Time{}
			e.transition(cr, StateFiring, now)
		}
	case StateFiring:
		if !calm {
			// Any non-healthy step restarts the recovery clock — the
			// admission-tier hold-down pattern.
			cr.healthyAt = time.Time{}
			return
		}
		if cr.healthyAt.IsZero() {
			cr.healthyAt = now
		}
		if now.Sub(cr.healthyAt) >= cr.ResolveHold {
			e.transition(cr, StateResolved, now)
		}
	}
}

// transition moves a rule to a new state and records it.
func (e *Engine) transition(cr *compiledRule, to State, now time.Time) {
	tr := Transition{Rule: cr.Name, From: cr.state.String(), To: to.String(), At: now, Value: cr.lastValue}
	cr.state = to
	cr.since = now
	e.history = append(e.history, tr)
	if over := len(e.history) - e.histCap; over > 0 {
		e.history = append(e.history[:0], e.history[over:]...)
	}
}

// healthy reports whether v meets the objective, tightened by margin
// (margin 0 is the plain objective; margin 0.1 demands 10% headroom).
func healthy(op Op, v, bound, margin float64) bool {
	switch op {
	case OpLT:
		return v < bound*(1-margin)
	case OpLE:
		return v <= bound*(1-margin)
	case OpGT:
		return v > bound*(1+margin)
	case OpGE:
		return v >= bound*(1+margin)
	case OpEQ:
		return v == bound
	}
	return true
}

// budget converts the current value into fraction-of-error-budget
// remaining: 1 at rest, 0 at or past the bound.
func budget(op Op, v, bound float64) float64 {
	var b float64
	switch op {
	case OpLT, OpLE:
		if bound == 0 {
			if v <= 0 {
				return 1
			}
			return 0
		}
		b = 1 - v/bound
	case OpGT, OpGE:
		if bound == 0 {
			if v > 0 {
				return 1
			}
			return 0
		}
		b = v/bound - 1
	case OpEQ:
		if v == bound {
			return 1
		}
		return 0
	}
	if b < 0 {
		return 0
	}
	if b > 1 {
		return 1
	}
	return b
}

// evalExpr is the production evaluator: windowed histogram quantiles
// and counter-ring rates.
func (e *Engine) evalExpr(x *Expr, window time.Duration, now time.Time) (float64, bool) {
	switch x.Kind {
	case KindQuantile:
		st := e.reg.Histogram(x.Hist).Window(window)
		if st.Count == 0 {
			return 0, false
		}
		switch x.Quantile {
		case 0.50:
			return st.P50, true
		case 0.95:
			return st.P95, true
		default:
			return st.P99, true
		}
	case KindRate:
		return e.counterRate(x.Counter, window, now)
	case KindIncrease:
		inc, ok := e.counterIncrease(x.Counter, window, now)
		return inc, ok
	case KindRatio:
		num, okN := e.counterRate(x.Counter, window, now)
		den, okD := e.counterRate(x.Denom, window, now)
		if !okN || !okD || den == 0 {
			// No denominator traffic: the ratio is vacuously healthy.
			return 0, den != 0 && okN && okD
		}
		return num / den, true
	}
	return 0, false
}

// counterIncrease returns a counter's growth over the window.
func (e *Engine) counterIncrease(name string, window time.Duration, now time.Time) (float64, bool) {
	r := e.rings[name]
	if r == nil {
		return 0, false
	}
	old, ok := r.at(now.Add(-window))
	if !ok {
		return 0, false
	}
	return float64(r.c.Value() - old.v), true
}

// counterRate returns a counter's per-second rate over the window,
// using the actual covered span when the ring is younger than the
// window.
func (e *Engine) counterRate(name string, window time.Duration, now time.Time) (float64, bool) {
	r := e.rings[name]
	if r == nil {
		return 0, false
	}
	old, ok := r.at(now.Add(-window))
	if !ok {
		return 0, false
	}
	span := now.Sub(old.at).Seconds()
	if span <= 0 {
		return 0, false
	}
	return float64(r.c.Value()-old.v) / span, true
}

// Samples returns the manifest/exposition view of every rule, sorted by
// name.
func (e *Engine) Samples() []obs.AlertSample {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]obs.AlertSample, 0, len(e.rules))
	for _, cr := range e.rules {
		s := obs.AlertSample{
			Name:            cr.Name,
			Severity:        cr.Severity,
			State:           cr.state.String(),
			Value:           cr.lastValue,
			Bound:           cr.Bound,
			BudgetRemaining: budget(cr.Op, cr.lastValue, cr.Bound),
			FiredTotal:      cr.firedTotal,
		}
		if !cr.since.IsZero() {
			s.SinceUnixMS = cr.since.UnixMilli()
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// History returns a copy of the transition ring, oldest first.
func (e *Engine) History() []Transition {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Transition(nil), e.history...)
}

// Status returns the /v1/alerts payload: per-rule status plus history.
func (e *Engine) Status() Status {
	samples := e.Samples()
	e.mu.Lock()
	byName := make(map[string]*compiledRule, len(e.rules))
	for _, cr := range e.rules {
		byName[cr.Name] = cr
	}
	st := Status{Rules: make([]RuleStatus, 0, len(samples))}
	for _, s := range samples {
		cr := byName[s.Name]
		st.Rules = append(st.Rules, RuleStatus{
			AlertSample: s,
			Expr:        cr.Expr.String(),
			Op:          string(cr.Op),
			Window:      cr.Window.String(),
			Slow:        cr.slow.String(),
		})
	}
	e.mu.Unlock()
	st.History = e.History()
	return st
}
