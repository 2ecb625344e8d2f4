package zigbee

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"hideseek/internal/bits"
	"hideseek/internal/dsp"
)

// DespreadMode selects the receiver's DSSS decision rule.
type DespreadMode int

// Receiver models. HardThreshold makes hard chip decisions on the coherent
// matched-filter output with a Hamming-distance drop threshold.
// SoftCorrelation despreads the matched-filter output by maximum
// correlation — the strongest model, standing in for the commodity
// CC26x2R1 demodulator that decodes reliably at longer range (Fig. 14b).
// FMDiscriminator decodes from the FM quadrature-discriminator chip stream
// with differential chip patterns, the structure of the USRP + GNU Radio
// receiver used in the paper's experiments; it inherits the FM front end's
// poor low-SNR behavior (Table II, Fig. 14a).
const (
	HardThreshold DespreadMode = iota + 1
	SoftCorrelation
	FMDiscriminator
)

// ReceiverConfig parameterizes a Receiver.
type ReceiverConfig struct {
	// Mode selects hard-threshold or soft-correlation despreading.
	// Defaults to HardThreshold.
	Mode DespreadMode
	// HammingThreshold is the drop threshold for HardThreshold mode.
	// Defaults to DefaultHammingThreshold.
	HammingThreshold int
	// SyncThreshold is the minimum normalized preamble correlation needed
	// to declare a frame. Defaults to 0.5.
	SyncThreshold float64
	// DirectSync forces the direct O(lags×ref) preamble correlation
	// instead of the FFT overlap-save plan. The two paths make the same
	// sync decisions and report bit-identical peaks (see dsp.Correlator);
	// direct remains available as the reference implementation.
	DirectSync bool
}

// Receiver demodulates baseband waveforms back into frames and exposes the
// intermediate chip samples that the defense consumes.
//
// A Receiver reuses internal correlation and derotation scratch buffers
// across calls and is therefore NOT safe for concurrent use; give each
// worker goroutine its own via Clone, which shares the immutable sync
// reference and correlation plans but owns fresh scratch (the runner
// package's per-worker scratch hook exists for exactly this).
//
// Reception lifetime: Receive returns an owned Reception the caller may
// keep indefinitely. ReceiveAll and DecodeAt return receptions backed by
// a receiver-owned frame arena — every slice field (and the Reception
// struct itself) stays valid only until the receiver's next Receive,
// ReceiveAll, DecodeAt, or FrameSpan call; callers that keep one longer
// must take a Reception.Copy. All of one ReceiveAll call's receptions
// are simultaneously valid.
type Receiver struct {
	cfg       ReceiverConfig
	syncRef   []complex128    // modulated SHR used for preamble correlation
	refEnergy float64         // Σ|syncRef|², cached for the noise estimate
	sync      *dsp.Correlator // overlap-save (or direct) preamble correlation plan

	avail []complex128 // decodeFrom scratch: derotated samples
	// Despread scratch, reused by header and frame decodes.
	chips    []float64  // header demod output (soft or discriminator)
	hardBits []bits.Bit // hard chip decisions
	syms     []byte     // despread symbols before byte packing
	hdrRes   []DespreadResult
	hdrBytes []byte // packed header bytes

	arena frameArena // backing store for returned Receptions
}

// NewReceiver builds a receiver, applying config defaults.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.Mode == 0 {
		cfg.Mode = HardThreshold
	}
	if cfg.Mode < HardThreshold || cfg.Mode > FMDiscriminator {
		return nil, fmt.Errorf("zigbee: unknown despread mode %d", cfg.Mode)
	}
	if cfg.HammingThreshold == 0 {
		cfg.HammingThreshold = DefaultHammingThreshold
	}
	if cfg.HammingThreshold < 0 || cfg.HammingThreshold > ChipsPerSymbol {
		return nil, fmt.Errorf("zigbee: hamming threshold %d outside [0, %d]", cfg.HammingThreshold, ChipsPerSymbol)
	}
	if cfg.SyncThreshold == 0 {
		cfg.SyncThreshold = 0.5
	}
	if cfg.SyncThreshold < 0 || cfg.SyncThreshold > 1 {
		return nil, fmt.Errorf("zigbee: sync threshold %v outside [0, 1]", cfg.SyncThreshold)
	}
	chips, err := Spread(shrSymbols())
	if err != nil {
		return nil, fmt.Errorf("zigbee: receiver init: %w", err)
	}
	ref, err := Modulate(chips)
	if err != nil {
		return nil, fmt.Errorf("zigbee: receiver init: %w", err)
	}
	// Drop the Q tail so the reference length is a whole number of symbols.
	ref = ref[:len(ref)-QOffsetSamples]
	cor, err := dsp.NewCorrelator(ref, dsp.CorrelatorConfig{UseDirect: cfg.DirectSync})
	if err != nil {
		return nil, fmt.Errorf("zigbee: receiver init: %w", err)
	}
	return &Receiver{
		cfg:       cfg,
		syncRef:   ref,
		refEnergy: dsp.Energy(ref),
		sync:      cor,
	}, nil
}

// Clone returns a receiver with the same configuration that shares the
// immutable sync reference and precomputed correlation plan
// but owns fresh scratch buffers, so the clone is safe to use from
// another goroutine. Cloning skips the SHR re-modulation and FFT
// precompute that NewReceiver pays.
func (rx *Receiver) Clone() *Receiver {
	return &Receiver{
		cfg:       rx.cfg,
		syncRef:   rx.syncRef,
		refEnergy: rx.refEnergy,
		sync:      rx.sync.Clone(),
	}
}

// SyncThreshold reports the receiver's effective preamble sync threshold
// (after config defaulting).
func (rx *Receiver) SyncThreshold() float64 { return rx.cfg.SyncThreshold }

// CloneWithSyncThreshold is Clone with the sync threshold replaced: the
// clone shares the immutable sync reference and correlation plan (the
// threshold is only consulted at decision time, never baked into the
// plan), so re-thresholding is as cheap as Clone. The streaming tier's
// degraded admission mode uses it to raise the sync bar under overload.
func (rx *Receiver) CloneWithSyncThreshold(t float64) (*Receiver, error) {
	if t < 0 || t > 1 {
		return nil, fmt.Errorf("zigbee: sync threshold %v outside [0, 1]", t)
	}
	c := rx.Clone()
	c.cfg.SyncThreshold = t
	return c, nil
}

// Reception captures everything the receiver extracted from one waveform.
//
// Receptions from ReceiveAll and DecodeAt are views into receiver-owned
// scratch — see the Receiver lifetime note and Reception.Copy.
type Reception struct {
	// PSDU is the decoded MAC-layer payload (nil if decoding failed).
	PSDU []byte
	// StartSample is where the frame's first chip begins in the input.
	StartSample int
	// SyncPeak is the normalized preamble correlation at the sync point.
	SyncPeak float64
	// PhaseEstimate is the carrier phase (radians) estimated from the
	// preamble correlation and removed before demodulation.
	PhaseEstimate float64
	// NoisePowerEstimate is the per-sample noise power measured from the
	// preamble residual (received SHR minus the best-fit scaled reference).
	// Emulation distortion inflates this residual, so on attack waveforms
	// it over-reports noise.
	NoisePowerEstimate float64
	// SNREstimateDB is the preamble-residual SNR estimate, |g|²·P_ref
	// over NoisePowerEstimate (60 dB for a noiseless residual). It reads
	// only the SHR, so every decode path reports the same value for the
	// same frame. Emulation distortion inflates the residual and drags
	// this estimate down; emulation.AdaptiveDetector therefore takes the
	// larger of it and OutOfBandSNREstimate over the received waveform.
	SNREstimateDB float64
	// SoftChips are the matched-filter chip samples for the whole PPDU —
	// the values the despreader decodes from.
	SoftChips []float64
	// PeakChips are one-sample-per-chip values taken at each ideal pulse
	// center (perfect timing). Filled by Receive and ReceiveAll only.
	PeakChips []float64
	// RecoveredChips is the output of the early–late clock-recovery loop —
	// a one-sample-per-chip stream with realistic timing jitter. Filled
	// by Receive and ReceiveAll only.
	RecoveredChips *RecoveredChips
	// DiscriminatorChips is the chip-rate output of the FM quadrature
	// discriminator front end (the GNU Radio receiver structure of the
	// paper's ref [22]). This is the defense's input: phase distortion in
	// the received waveform appears here undiluted.
	DiscriminatorChips []float64
	// Results holds per-symbol despreading outcomes.
	Results []DespreadResult
	// SymbolErrors counts dropped symbol windows.
	SymbolErrors int
}

// oobSegment is the Welch segment length of the out-of-band SNR estimate.
const oobSegment = 256

// OutOfBandSNREstimate infers the SNR by measuring the noise floor in the
// 1.2–1.9 MHz guard bands (both signs) where the 2 MHz O-QPSK signal has
// almost no energy: for white noise every Welch PSD bin reads the total
// noise power, so the guard-band mean IS the noise power. The estimate
// saturates near ~17 dB (residual signal sidelobes set a floor), which is
// harmless for threshold indexing. Measuring noise where the signal has
// (almost) no energy makes it robust to in-band waveform distortion: an
// attacker cannot talk it *down* without radiating extra out-of-band
// power. emulation.AdaptiveDetector combines it with the receiver's
// preamble-residual Reception.SNREstimateDB.
func OutOfBandSNREstimate(waveform []complex128) (float64, error) {
	if len(waveform) < oobSegment {
		return 0, fmt.Errorf("zigbee: waveform too short for a PSD estimate")
	}
	psd, err := dsp.WelchPSD(waveform, oobSegment, dsp.Hann)
	if err != nil {
		return 0, fmt.Errorf("zigbee: out-of-band estimate: %w", err)
	}
	var noise, total float64
	noiseBins := 0
	for k, p := range psd {
		total += p
		f, err := dsp.BinFrequency(k, len(psd), SampleRate)
		if err != nil {
			return 0, err
		}
		if af := math.Abs(f); af >= 1.2e6 && af <= 1.9e6 {
			noise += p
			noiseBins++
		}
	}
	if noiseBins == 0 {
		return 0, fmt.Errorf("zigbee: no guard-band bins")
	}
	noisePower := noise / float64(noiseBins)
	totalPower := total / float64(len(psd))
	if noisePower <= 0 || totalPower <= noisePower {
		return 60, nil
	}
	return dsp.DB((totalPower - noisePower) / noisePower), nil
}

// ErrNoPreamble is what SynchronizeFirst returns when no correlation lag
// crosses the sync threshold (or every lag is NaN). It is a sentinel so
// the streaming scanner's no-sync path, which runs on every chunk of
// frame-free input, allocates nothing; the best peak still comes back as
// the second result (0 when every lag is NaN).
var ErrNoPreamble = errors.New("zigbee: no preamble found")

// SynchronizeFirst finds the EARLIEST frame start: the first index where
// the normalized preamble correlation crosses the threshold, refined to
// the local maximum within the following reference length (see
// dsp.Correlator.FirstCrossing).
func (rx *Receiver) SynchronizeFirst(waveform []complex128) (int, float64, error) {
	if len(waveform) < len(rx.syncRef) {
		return 0, 0, fmt.Errorf("zigbee: waveform shorter than sync reference (%d < %d)", len(waveform), len(rx.syncRef))
	}
	start, peak, found := rx.sync.FirstCrossing(waveform, rx.cfg.SyncThreshold)
	if !found {
		return 0, peak, ErrNoPreamble
	}
	return start, peak, nil
}

// ResumeSync declares that the next SynchronizeFirst searches a window
// starting at sample at of a stream whose samples never change once
// seen, so the search reuses the correlation screen this receiver kept
// for that stream (see dsp.Correlator.Resume). A SynchronizeFirst without
// it is a fresh search.
func (rx *Receiver) ResumeSync(at int64) { rx.sync.Resume(at) }

// Receive synchronizes, demodulates, despreads, and parses the earliest
// frame in the waveform: on a capture holding several frames it decodes
// the first one SynchronizeFirst finds, which is where ReceiveAll starts
// too, not the strongest. A Reception is returned even on decode failure
// (with as much diagnostic state as was extracted) alongside the error.
// Unlike ReceiveAll/DecodeAt, the returned Reception is owned by the
// caller and stays valid across later receiver calls.
func (rx *Receiver) Receive(waveform []complex128) (*Reception, error) {
	t0 := time.Now()
	start, peak, err := rx.SynchronizeFirst(waveform)
	obsSync.Since(t0)
	if err != nil {
		return &Reception{SyncPeak: peak}, err
	}
	rx.arena.reset()
	rec, err := rx.decodeFrom(waveform, start, peak, true)
	return rec.Copy(), err
}

// decodeFrom runs the post-synchronization receive pipeline. The returned
// Reception is carved from the receiver's frame arena; entry points reset
// the arena and decide whether to hand out the view or a copy. allTaps
// adds the PeakChips and RecoveredChips taps, which only the batch
// entry points fill: a stream verdict reads SoftChips (despreading, the
// matched-filter detector) and DiscriminatorChips (the default detector)
// and nothing else.
func (rx *Receiver) decodeFrom(waveform []complex128, start int, peak float64, allTaps bool) (*Reception, error) {
	slot := &dsp.Carve(&rx.arena.slots, 1, arenaMinSlots)[0]
	*slot = frameSlot{}
	rec, rc := &slot.rec, &slot.rc
	rec.StartSample = start
	rec.SyncPeak = peak

	acc, avail, hdrBytes, err := rx.header(waveform, start, len(waveform)-start)
	rec.PhaseEstimate = cmplx.Phase(acc)

	// Noise estimation from the preamble residual: project the received
	// SHR onto the reference (complex gain g), subtract, and measure what
	// is left. SNR = |g|²·P_ref / P_residual. It needs only the SHR
	// correlation, so it is filled even when the header fails to decode.
	if rx.refEnergy > 0 {
		g := acc / complex(rx.refEnergy, 0)
		var resid float64
		for i, r := range rx.syncRef {
			d := waveform[start+i] - g*r
			resid += real(d)*real(d) + imag(d)*imag(d)
		}
		n := float64(len(rx.syncRef))
		rec.NoisePowerEstimate = resid / n
		sigPower := (real(g)*real(g) + imag(g)*imag(g)) * rx.refEnergy / n
		if rec.NoisePowerEstimate > 0 {
			rec.SNREstimateDB = dsp.DB(sigPower / rec.NoisePowerEstimate)
		} else {
			rec.SNREstimateDB = 60 // effectively noiseless
		}
	}
	if err != nil {
		return rec, err
	}
	psduLen := int(hdrBytes[PreambleBytes+1] & 0x7F)

	totalSymbols := hdrSymbols + psduLen*SymbolsPerByte
	totalChips := totalSymbols * ChipsPerSymbol
	soft := dsp.Carve(&rx.arena.f64, totalChips, arenaMinFloats)
	if err := DemodulateInto(soft, avail); err != nil {
		return rec, fmt.Errorf("zigbee: frame demodulation: %w", err)
	}
	rec.SoftChips = soft
	if allTaps {
		peaks := dsp.Carve(&rx.arena.f64, totalChips, arenaMinFloats)
		if err := PeakChipsInto(peaks, avail); err != nil {
			return rec, fmt.Errorf("zigbee: peak sampling: %w", err)
		}
		rec.PeakChips = peaks
		rcSoft := dsp.Carve(&rx.arena.f64, totalChips, arenaMinFloats)
		rcTiming := dsp.Carve(&rx.arena.f64, totalChips/2, arenaMinFloats)
		if err := DefaultClockRecovery().RecoverInto(rcSoft, rcTiming, avail); err != nil {
			return rec, fmt.Errorf("zigbee: clock recovery: %w", err)
		}
		rc.Soft, rc.Timing = rcSoft, rcTiming
		rec.RecoveredChips = rc
	}
	disc := dsp.Carve(&rx.arena.f64, totalChips, arenaMinFloats)
	if err := DiscriminatorChipsInto(disc, avail); err != nil {
		return rec, fmt.Errorf("zigbee: discriminator: %w", err)
	}
	rec.DiscriminatorChips = disc

	// Despread the whole frame in one pass over the chip streams
	// demodulated above (bitwise identical to re-demodulating: the
	// matched filter and discriminator are deterministic).
	results := dsp.Carve(&rx.arena.res, totalSymbols, arenaMinResults)
	switch rx.cfg.Mode {
	case HardThreshold:
		err = rx.despreadHardInto(results, soft)
	case SoftCorrelation:
		err = rx.despreadSoftInto(results, soft)
	case FMDiscriminator:
		err = rx.despreadFMInto(results, disc)
	}
	if err != nil {
		return rec, fmt.Errorf("zigbee: frame decode: %w", err)
	}
	syms := dsp.Grow(&rx.syms, totalSymbols)
	errs := 0
	for i, r := range results {
		syms[i] = r.Symbol
		if r.Dropped {
			errs++
		}
	}
	allBytes := dsp.Carve(&rx.arena.bytes, totalSymbols/2, arenaMinBytes)
	if err := SymbolsToBytesInto(allBytes, syms); err != nil {
		return rec, fmt.Errorf("zigbee: frame decode: %w", err)
	}
	rec.Results = results
	rec.SymbolErrors = errs
	if errs > 0 {
		return rec, fmt.Errorf("zigbee: %d symbol windows dropped", errs)
	}
	psdu, err := ParsePPDU(allBytes)
	if err != nil {
		return rec, fmt.Errorf("zigbee: %w", err)
	}
	rec.PSDU = psdu
	return rec, nil
}

// ReceiveAll extracts successive frames from one capture: after each
// decoded frame the search resumes past its end, so a long recording with
// several transmissions yields them all (in order). Decode failures after
// a successful sync advance past the bad sync point rather than aborting.
// maxFrames bounds the output (0 = no bound).
//
// The returned receptions (and the slice holding them) are views into
// receiver-owned scratch, all simultaneously valid until the receiver's
// next Receive/ReceiveAll/DecodeAt/FrameSpan call; use Reception.Copy to
// keep one longer.
func (rx *Receiver) ReceiveAll(waveform []complex128, maxFrames int) ([]*Reception, error) {
	rx.arena.reset()
	out := rx.arena.outs
	offset := 0
	for {
		if maxFrames > 0 && len(out) >= maxFrames {
			break
		}
		if offset >= len(waveform) || len(waveform)-offset < len(rx.syncRef) {
			break
		}
		start, peak, err := rx.SynchronizeFirst(waveform[offset:])
		if err != nil {
			break // no further preambles
		}
		rec, err := rx.decodeFrom(waveform[offset:], start, peak, true)
		if err != nil {
			// Bad frame: skip past this sync point and keep searching.
			offset += start + len(rx.syncRef)
			continue
		}
		rec.StartSample += offset
		out = append(out, rec)
		// Advance past the decoded frame: SHR+PHR+PSDU symbols.
		frameSamples := (len(rec.SoftChips) / 2) * SamplesPerPulse
		offset = rec.StartSample + frameSamples
	}
	rx.arena.outs = out
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// Header span: preamble, SFD and PHR.
const (
	hdrSymbols = (PreambleBytes + 2) * SymbolsPerByte
	hdrChips   = hdrSymbols * ChipsPerSymbol
)

// header is the SHR+PHR step FrameSpan and decodeFrom share. It
// correlates the SHR with the reference to recover the carrier phase (the
// complex correlation's argument is the channel's constant rotation),
// derotates the first n samples from start into receiver scratch so the
// I/Q arms demodulate coherently, and demodulates and despreads the
// SHR+PHR from them. It returns the correlation (also on error), the
// derotated samples and the packed header bytes, both valid until the
// next decode. The caller has checked that the SHR lies in waveform, and
// n covers at least the header.
func (rx *Receiver) header(waveform []complex128, start, n int) (acc complex128, avail []complex128, hdr []byte, err error) {
	for i, r := range rx.syncRef {
		acc += waveform[start+i] * complex(real(r), -imag(r))
	}
	if maxChipsIn(len(waveform)-start) < hdrChips {
		return acc, nil, nil, fmt.Errorf("zigbee: header demodulation: waveform too short")
	}
	derot := cmplx.Rect(1, -cmplx.Phase(acc))
	avail = dsp.Grow(&rx.avail, n)
	for i := range avail {
		avail[i] = waveform[start+i] * derot
	}
	results := dsp.Grow(&rx.hdrRes, hdrSymbols)
	chips := dsp.Grow(&rx.chips, hdrChips)
	switch rx.cfg.Mode {
	case HardThreshold, SoftCorrelation:
		if err = DemodulateInto(chips, avail); err != nil {
			break
		}
		if rx.cfg.Mode == HardThreshold {
			err = rx.despreadHardInto(results, chips)
		} else {
			err = rx.despreadSoftInto(results, chips)
		}
	case FMDiscriminator:
		if err = DiscriminatorChipsInto(chips, avail); err != nil {
			break
		}
		err = rx.despreadFMInto(results, chips)
	}
	if err != nil {
		return acc, avail, nil, fmt.Errorf("zigbee: header decode: %w", err)
	}
	syms := dsp.Grow(&rx.syms, hdrSymbols)
	errs := 0
	for i, r := range results {
		syms[i] = r.Symbol
		if r.Dropped {
			errs++
		}
	}
	hdr = dsp.Grow(&rx.hdrBytes, hdrSymbols/2)
	if err := SymbolsToBytesInto(hdr, syms); err != nil {
		return acc, avail, nil, fmt.Errorf("zigbee: header decode: %w", err)
	}
	if errs > 0 {
		return acc, avail, nil, fmt.Errorf("zigbee: %d dropped symbols in header", errs)
	}
	return acc, avail, hdr, nil
}

// despreadHardInto despreads soft chips with the hard-decision rule into
// res, one result per 32-chip window, matching DespreadHard on the soft
// chips sliced at zero: the symbol at minimum Hamming distance, first
// index winning ties.
func (rx *Receiver) despreadHardInto(res []DespreadResult, soft []float64) error {
	defer obsDespread.Since(time.Now())
	if len(soft)%ChipsPerSymbol != 0 {
		return fmt.Errorf("zigbee: chip count %d not a multiple of %d", len(soft), ChipsPerSymbol)
	}
	hard := dsp.Grow(&rx.hardBits, len(soft))
	for i, v := range soft {
		if v >= 0 {
			hard[i] = 1
		} else {
			hard[i] = 0
		}
	}
	for w := range len(soft) / ChipsPerSymbol {
		window := hard[w*ChipsPerSymbol : (w+1)*ChipsPerSymbol]
		best, bestDist := byte(0), ChipsPerSymbol+1
		for s := byte(0); s < 16; s++ {
			d, err := bits.HammingDistance(window, chipTable[s][:])
			if err != nil {
				return fmt.Errorf("zigbee: despread: %w", err)
			}
			if d < bestDist {
				best, bestDist = s, d
			}
		}
		res[w] = DespreadResult{Symbol: best, Distance: bestDist, Dropped: bestDist > rx.cfg.HammingThreshold}
	}
	return nil
}

// despreadSoftInto despreads soft chips by maximum ±1 correlation into
// res, matching DespreadSoft: codewords are scored in order and the first
// maximum wins (multiplying by ±1 is exact, so the sums equal
// DespreadSoft's add/subtract accumulation bit for bit).
func (rx *Receiver) despreadSoftInto(res []DespreadResult, soft []float64) error {
	defer obsDespread.Since(time.Now())
	if len(soft)%ChipsPerSymbol != 0 {
		return fmt.Errorf("zigbee: soft chip count %d not a multiple of %d", len(soft), ChipsPerSymbol)
	}
	hard := dsp.Grow(&rx.hardBits, ChipsPerSymbol)
	for w := range len(soft) / ChipsPerSymbol {
		window := soft[w*ChipsPerSymbol : (w+1)*ChipsPerSymbol]
		best, bestCorr := byte(0), math.Inf(-1)
		for s := range chipPM {
			var corr float64
			for i, c := range chipPM[s][:] {
				corr += window[i] * c
			}
			if corr > bestCorr {
				best, bestCorr = byte(s), corr
			}
		}
		for i, v := range window {
			if v >= 0 {
				hard[i] = 1
			} else {
				hard[i] = 0
			}
		}
		// Report the hard Hamming distance too so both receiver models
		// expose comparable diagnostics.
		d, err := bits.HammingDistance(hard, chipTable[best][:])
		if err != nil {
			return fmt.Errorf("zigbee: soft despread: %w", err)
		}
		res[w] = DespreadResult{Symbol: best, Distance: d}
	}
	return nil
}

// despreadFMInto despreads discriminator chips against the precomputed
// differential patterns into res, identical to DespreadDiscriminator.
func (rx *Receiver) despreadFMInto(res []DespreadResult, disc []float64) error {
	defer obsDespread.Since(time.Now())
	if len(disc)%ChipsPerSymbol != 0 {
		return fmt.Errorf("zigbee: discriminator chip count %d not a multiple of %d", len(disc), ChipsPerSymbol)
	}
	hard := dsp.Grow(&rx.hardBits, ChipsPerSymbol-1)
	for w := 0; w*ChipsPerSymbol < len(disc); w++ {
		window := disc[w*ChipsPerSymbol : (w+1)*ChipsPerSymbol]
		for k := 1; k < ChipsPerSymbol; k++ {
			if window[k] >= 0 {
				hard[k-1] = 1
			} else {
				hard[k-1] = 0
			}
		}
		best, bestDist := byte(0), ChipsPerSymbol+1
		for s := byte(0); s < 16; s++ {
			d, err := bits.HammingDistance(hard, differentialTable[s][:])
			if err != nil {
				return fmt.Errorf("zigbee: discriminator despread: %w", err)
			}
			if d < bestDist {
				best, bestDist = s, d
			}
		}
		res[w] = DespreadResult{Symbol: best, Distance: bestDist, Dropped: bestDist > rx.cfg.HammingThreshold}
	}
	return nil
}

// maxChipsIn returns how many whole chips fit in n samples, accounting for
// the Q-arm tail.
func maxChipsIn(n int) int {
	pairs := (n - QOffsetSamples) / SamplesPerPulse
	if pairs < 0 {
		return 0
	}
	return pairs * 2
}
