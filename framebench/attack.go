package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"hideseek/internal/dsp"
	"hideseek/internal/emulation"
	"hideseek/internal/lora"
	"hideseek/internal/wifi"
	"hideseek/internal/zigbee"
)

// attackSetups is how many times attack-forge set-up runs; setup_s is
// the median.
const attackSetups = 5

// attackWorkload is the attack-forge input set with each input's victim
// waveform and the 4 MS/s forgery Emulate made of it at set-up, which
// every later forgery must equal bit for bit. Only that waveform is kept,
// so the attacker's live heap holds no more than a deployed attacker's.
type attackWorkload struct {
	inputs []attackInput
	waves  [][]complex128
	golden [][]complex128
	em     *emulation.Emulator
	setupS []float64
	tally  tally
	hash   string
}

// forge runs the library's forge entry point for one input.
func forge(em *emulation.Emulator, in attackInput) (*emulation.Result, error) {
	if in.Proto == "lora" {
		return emulation.ForgeLoRaPayload(em, in.Payload)
	}
	return emulation.ForgePSDU(em, in.Payload)
}

// victimTx modulates an input on its victim's transmitter.
func victimTx(in attackInput) ([]complex128, error) {
	if in.Proto == "lora" {
		return lora.NewTransmitter().TransmitPayload(in.Payload)
	}
	return zigbee.NewTransmitter().TransmitPSDU(in.Payload)
}

// setupAttack times NewEmulator plus one warm-up forge of every input,
// attackSetups times, and checks that each warm-up forgery decodes to its
// payload on the victim receiver.
func setupAttack(seed int64, setups int) (*attackWorkload, error) {
	w := &attackWorkload{inputs: genAttackInputs(seed)}
	w.hash = inputHash(nil, w.inputs)
	for range setups {
		runtime.GC() // each set-up starts from the same heap, not the last one's garbage
		start := time.Now()
		em, err := emulation.NewEmulator(emulation.AttackConfig{})
		if err != nil {
			return nil, err
		}
		golden := make([][]complex128, len(w.inputs))
		for i, in := range w.inputs {
			res, err := forge(em, in)
			if err != nil {
				return nil, err
			}
			golden[i] = res.Emulated4M
		}
		w.setupS = append(w.setupS, time.Since(start).Seconds())
		w.em, w.golden = em, golden
	}
	for i, in := range w.inputs {
		wave, err := victimTx(in)
		if err != nil {
			return nil, err
		}
		w.waves = append(w.waves, wave)
		w.tally.attempted++
		if err := verifyForged(in, w.golden[i]); err != nil {
			w.tally.fail("forgery-undecodable")
		}
	}
	return w, nil
}

// attackRun is what one attack-forge loop measured.
type attackRun struct {
	tally     tally
	latencyMS []float64 // every forge call
	fastestMS []float64 // per input, its fastest call
	forges    int
	samples   int64
	seconds   float64
}

// cycle is one pass through the set with each input timed at its fastest
// call of the run: the frames and victim samples forged, and the seconds
// they take on a core no neighbour slows. The forge path is branch- and
// cache-heavy, and on a
// shared host neighbours slow whole stretches of a run by up to 2x while a
// plain arithmetic loop stays within 5%; the fastest of an input's calls is
// the one the host left alone, so these rates follow the program, not the
// host.
func (r *attackRun) cycle(w *attackWorkload) (frames int, samples int64, seconds float64) {
	for i, ms := range r.fastestMS {
		samples += int64(len(w.waves[i]))
		seconds += ms / 1e3
	}
	return len(r.fastestMS), samples, seconds
}

// run forges the whole set over and over, in whole cycles, until the time
// is up. A forgery that differs from the set-up one is kept and checked
// on the victim receiver after the loop.
func (w *attackWorkload) run(seconds float64) (*attackRun, error) {
	r := &attackRun{fastestMS: make([]float64, len(w.inputs))}
	for i := range r.fastestMS {
		r.fastestMS[i] = math.Inf(1)
	}
	type odd struct {
		in   int
		wave []complex128
	}
	var differing []odd
	runtime.GC() // collect set-up garbage before the loop runs
	t0 := time.Now()
	for time.Since(t0).Seconds() < seconds {
		for i, in := range w.inputs {
			start := time.Now()
			res, err := forge(w.em, in)
			if err != nil {
				return nil, err
			}
			ms := float64(time.Since(start).Nanoseconds()) / 1e6
			r.latencyMS = append(r.latencyMS, ms)
			r.fastestMS[i] = min(r.fastestMS[i], ms)
			r.forges++
			r.samples += int64(len(w.waves[i]))
			if !sameSamples(res.Emulated4M, w.golden[i]) {
				differing = append(differing, odd{i, res.Emulated4M})
			}
		}
	}
	r.seconds = time.Since(t0).Seconds()
	r.tally.attempted = r.forges
	for _, d := range differing {
		if err := verifyForged(w.inputs[d.in], d.wave); err != nil {
			r.tally.fail("forgery-undecodable")
		}
	}
	return r, nil
}

func sameSamples(a, b []complex128) bool {
	return slices.EqualFunc(a, b, func(x, y complex128) bool {
		return math.Float64bits(real(x)) == math.Float64bits(real(y)) &&
			math.Float64bits(imag(x)) == math.Float64bits(imag(y))
	})
}

// sameResult reports how a replica result differs from Emulate's.
func sameResult(got, want *emulation.Result) error {
	switch {
	case !sameSamples(got.Emulated20M, want.Emulated20M):
		return fmt.Errorf("Emulated20M differs")
	case !sameSamples(got.Emulated4M, want.Emulated4M):
		return fmt.Errorf("Emulated4M differs")
	case !sameSamples(got.Observed20M, want.Observed20M):
		return fmt.Errorf("Observed20M differs")
	case !slices.Equal(got.Bins, want.Bins):
		return fmt.Errorf("bins %v, Emulate %v", got.Bins, want.Bins)
	case !slices.Equal(got.Alphas, want.Alphas):
		return fmt.Errorf("alphas differ")
	case math.Float64bits(got.QuantError) != math.Float64bits(want.QuantError):
		return fmt.Errorf("quantization error %v, Emulate %v", got.QuantError, want.QuantError)
	case got.NumSegments != want.NumSegments || len(got.QAMPoints) != len(want.QAMPoints):
		return fmt.Errorf("segment count differs")
	}
	for i := range got.QAMPoints {
		if !sameSamples(got.QAMPoints[i], want.QAMPoints[i]) {
			return fmt.Errorf("QAM points of segment %d differ", i)
		}
	}
	return nil
}

// coarseThreshold is AttackConfig's default coarse-estimation threshold.
const coarseThreshold = 3

// replica is Emulator.Emulate under the default AttackConfig, rebuilt
// from the public calls it makes so each step can be timed on its own.
// Its result must equal Emulate's bit for bit.
type replica struct {
	interp  *dsp.Interpolator
	dec     *dsp.Decimator
	qam     *wifi.Constellation
	up      []complex128
	spec    []complex128
	chosen  []complex128
	symSpec []complex128
}

func newReplica() (*replica, error) {
	interp, err := dsp.NewInterpolator(emulation.Interpolation, 16)
	if err != nil {
		return nil, err
	}
	dec, err := dsp.NewDecimator(emulation.Interpolation)
	if err != nil {
		return nil, err
	}
	qam, err := wifi.NewConstellation(wifi.QAM64)
	if err != nil {
		return nil, err
	}
	return &replica{interp: interp, dec: dec, qam: qam, symSpec: make([]complex128, wifi.NumSubcarriers)}, nil
}

func grow(buf []complex128, n int) []complex128 {
	if cap(buf) < n {
		return make([]complex128, n)
	}
	return buf[:n]
}

// emulate runs the attack on observed, recording one span per step under
// parent.
func (r *replica) emulate(rec *recorder, parent, frame int, observed []complex128) (*emulation.Result, error) {
	n := len(observed) * emulation.Interpolation
	total := (n + wifi.SymbolSamples - 1) / wifi.SymbolSamples * wifi.SymbolSamples
	numSegments := total / wifi.SymbolSamples

	s := time.Now()
	r.up = grow(r.up, total)
	up := r.up
	r.interp.ProcessInto(up[:n], observed)
	clear(up[n:])
	rec.add(spanInterpolate, parent, frame, s)

	s = time.Now()
	r.spec = grow(r.spec, numSegments*wifi.NumSubcarriers)
	segSpec := func(i int) []complex128 { return r.spec[i*wifi.NumSubcarriers : (i+1)*wifi.NumSubcarriers] }
	for i := range numSegments {
		if err := wifi.AnalyzeSymbolInto(segSpec(i), up[i*wifi.SymbolSamples:(i+1)*wifi.SymbolSamples]); err != nil {
			return nil, err
		}
	}
	rec.add(spanAnalyze, parent, frame, s)

	s = time.Now()
	est := emulation.NewSubcarrierEstimator(coarseThreshold, emulation.DefaultKeptSubcarriers)
	for i := range numSegments {
		est.Observe(segSpec(i))
	}
	bins, err := est.Select()
	if err != nil {
		return nil, err
	}
	rec.add(spanSelectBins, parent, frame, s)

	res := &emulation.Result{
		Observed20M: append([]complex128(nil), up...),
		Bins:        append([]int(nil), bins...),
		NumSegments: numSegments,
		Emulated20M: make([]complex128, total),
		Alphas:      make([]float64, 0, numSegments),
		QAMPoints:   make([][]complex128, 0, numSegments),
	}

	s = time.Now()
	r.chosen = grow(r.chosen, numSegments*len(bins))
	for i := range numSegments {
		for j, k := range bins {
			r.chosen[i*len(bins)+j] = segSpec(i)[k]
		}
	}
	alpha, _, err := emulation.OptimizeAlpha(r.qam, r.chosen, emulation.AlphaGrid{})
	if err != nil {
		return nil, err
	}
	rec.add(spanOptimizeAlpha, parent, frame, s)

	s = time.Now()
	for i := range numSegments {
		clear(r.symSpec)
		pts := make([]complex128, len(bins))
		for j, v := range r.chosen[i*len(bins) : (i+1)*len(bins)] {
			q, errSq := r.qam.Quantize(v, alpha)
			pts[j] = q
			res.QuantError += errSq
		}
		for j, k := range bins {
			r.symSpec[k] = pts[j]
		}
		if err := wifi.SynthesizeSymbolInto(res.Emulated20M[i*wifi.SymbolSamples:(i+1)*wifi.SymbolSamples], r.symSpec); err != nil {
			return nil, err
		}
		res.Alphas = append(res.Alphas, alpha)
		res.QAMPoints = append(res.QAMPoints, pts)
	}
	rec.add(spanQuantizeSynth, parent, frame, s)

	s = time.Now()
	res.Emulated4M = r.dec.Process(res.Emulated20M)
	rec.add(spanDecimate, parent, frame, s)
	return res, nil
}
