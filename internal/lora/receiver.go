package lora

import (
	"errors"
	"fmt"

	"hideseek/internal/dsp"
)

// ReceiverConfig parameterizes a Receiver.
type ReceiverConfig struct {
	// SyncThreshold is the minimum normalized preamble correlation needed
	// to declare a frame. Defaults to 0.5.
	SyncThreshold float64
	// DirectSync forces the direct preamble correlation instead of the
	// FFT overlap-save plan. The two paths make the same sync decisions
	// and report bit-identical peaks (see dsp.Correlator); direct remains
	// available as the reference implementation.
	DirectSync bool
}

// Receiver demodulates CSS baseband waveforms back into frames and
// exposes the per-symbol spectral statistics the defense consumes.
//
// A Receiver reuses internal dechirp/FFT scratch buffers across calls and
// is therefore NOT safe for concurrent use; give each worker goroutine
// its own via Clone, which shares the immutable sync reference, dechirp
// references and correlation plan but owns fresh scratch.
//
// Reception lifetime: Receive returns an owned Reception the caller keeps
// forever. ReceiveAll and DecodeAt return views into receiver-owned
// scratch (the frame arena), valid until the receiver's next
// Receive/ReceiveAll/DecodeAt/FrameSpan call; all receptions from one
// ReceiveAll call are simultaneously valid. Use Reception.Copy to keep
// one longer.
type Receiver struct {
	cfg       ReceiverConfig
	syncRef   []complex128    // modulated preamble used for correlation sync
	sync      *dsp.Correlator // overlap-save (or direct) preamble correlation plan
	dechirpUp []complex128    // conj(base upchirp): dechirps upchirp symbols
	dechirpDn []complex128    // base upchirp: dechirps the preamble downchirps
	dec       []complex128    // demodSymbol scratch: decimated dechirped symbol
	spec      []complex128    // demodSymbol scratch: symbol spectrum
	arena     frameArena      // backing store for scratch-lifetime Receptions
}

// NewReceiver builds a receiver, applying config defaults.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.SyncThreshold == 0 {
		cfg.SyncThreshold = 0.5
	}
	if cfg.SyncThreshold < 0 || cfg.SyncThreshold > 1 {
		return nil, fmt.Errorf("lora: sync threshold %v outside [0, 1]", cfg.SyncThreshold)
	}
	ref := NewTransmitter().preamble
	cor, err := dsp.NewCorrelator(ref, dsp.CorrelatorConfig{UseDirect: cfg.DirectSync})
	if err != nil {
		return nil, fmt.Errorf("lora: receiver init: %w", err)
	}
	up := Upchirp(0)
	return &Receiver{
		cfg:       cfg,
		syncRef:   ref,
		sync:      cor,
		dechirpUp: dsp.Conj(up),
		dechirpDn: up,
	}, nil
}

// Clone returns a receiver with the same configuration that shares the
// immutable sync/dechirp references and precomputed correlation plan but
// owns fresh scratch buffers, so the clone is safe to use from another
// goroutine.
func (rx *Receiver) Clone() *Receiver {
	return &Receiver{
		cfg:       rx.cfg,
		syncRef:   rx.syncRef,
		sync:      rx.sync.Clone(),
		dechirpUp: rx.dechirpUp,
		dechirpDn: rx.dechirpDn,
	}
}

// SyncThreshold reports the receiver's effective preamble sync threshold
// (after config defaulting).
func (rx *Receiver) SyncThreshold() float64 { return rx.cfg.SyncThreshold }

// CloneWithSyncThreshold is Clone with the sync threshold replaced; the
// clone shares the immutable dechirp references and correlation plan (the
// threshold is only consulted at decision time). The streaming tier's
// degraded admission mode uses it to raise the sync bar under overload.
func (rx *Receiver) CloneWithSyncThreshold(t float64) (*Receiver, error) {
	if t < 0 || t > 1 {
		return nil, fmt.Errorf("lora: sync threshold %v outside [0, 1]", t)
	}
	c := rx.Clone()
	c.cfg.SyncThreshold = t
	return c, nil
}

// SyncRefSamples is the length of the modulated-preamble synchronization
// reference: the minimum window SynchronizeFirst can search, and the
// amount ReceiveAll skips past an undecodable sync point.
func (rx *Receiver) SyncRefSamples() int { return len(rx.syncRef) }

// Reception captures everything the receiver extracted from one frame.
type Reception struct {
	// Payload is the decoded payload (nil if decoding failed).
	Payload []byte
	// StartSample is where the frame begins in the input.
	StartSample int
	// SyncPeak is the normalized preamble correlation at the sync point.
	SyncPeak float64
	// SymbolBins holds the demodulated FFT peak bin of every symbol, in
	// frame order (preamble, downchirps, header, payload).
	SymbolBins []int
	// Concentrations holds, per symbol, the fraction of dechirped
	// spectral energy in the peak bin — 1 for a clean chirp, lower when
	// noise or emulation distortion spreads energy across bins.
	Concentrations []float64
	// WideConcentrations holds the same statistic measured over the peak
	// bin ±1 (cyclically). Multipath delay spread and residual CFO smear
	// an authentic tone into the adjacent bins, so the wide window is the
	// robust variant real-environment detectors use (DetectorConfig.
	// WidePeak); emulation distortion is broadband and stays outside it.
	WideConcentrations []float64
	// OffPeakRatio is the mean of (1 − concentration) over the frame's
	// symbols: the defense's distance statistic (see Detector).
	OffPeakRatio float64
}

// demodSymbol dechirps one symbol against ref, decimates to chip rate,
// and returns the FFT peak bin, the peak bin's share of the symbol's
// spectral energy, and the share of the peak bin ±1 (the real-environment
// window; see Reception.WideConcentrations).
func (rx *Receiver) demodSymbol(sym, ref []complex128) (bin int, concentration, wide float64) {
	if rx.dec == nil {
		rx.dec = make([]complex128, ChipsPerSymbol)
		rx.spec = make([]complex128, ChipsPerSymbol)
	}
	for m := 0; m < ChipsPerSymbol; m++ {
		rx.dec[m] = sym[m*Oversample] * ref[m*Oversample]
	}
	dsp.FFTInto(rx.spec, rx.dec)
	var total, best float64
	for k, v := range rx.spec {
		p := real(v)*real(v) + imag(v)*imag(v)
		total += p
		if p > best {
			best, bin = p, k
		}
	}
	if total > 0 {
		concentration = best / total
		win := best
		for _, k := range [2]int{(bin + 1) % ChipsPerSymbol, (bin + ChipsPerSymbol - 1) % ChipsPerSymbol} {
			v := rx.spec[k]
			win += real(v)*real(v) + imag(v)*imag(v)
		}
		wide = win / total
	}
	return bin, concentration, wide
}

// ErrNoPreamble is what SynchronizeFirst returns when no correlation lag
// crosses the sync threshold (or every lag is NaN). It is a sentinel so
// the streaming scanner's no-sync path allocates nothing; the best peak
// still comes back as the second result (0 when every lag is NaN).
var ErrNoPreamble = errors.New("lora: no preamble found")

// SynchronizeFirst finds the EARLIEST frame start: the first index where
// the normalized preamble correlation crosses the threshold, refined to
// the local maximum within the following reference length (see
// dsp.Correlator.FirstCrossing). The downchirp tail of the preamble
// breaks the upchirp train's ±1-symbol self-similarity, so the refined
// peak is the true frame start.
func (rx *Receiver) SynchronizeFirst(waveform []complex128) (int, float64, error) {
	if len(waveform) < len(rx.syncRef) {
		return 0, 0, fmt.Errorf("lora: waveform shorter than sync reference (%d < %d)", len(waveform), len(rx.syncRef))
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

// header demodulates and validates the preamble and header symbols of a
// frame starting at start, returning the payload length plus the
// demodulated bins and concentrations of the first
// PreambleSymbols+HeaderSymbols symbols.
func (rx *Receiver) header(waveform []complex128, start int) (payloadLen int, bins []int, conc, wide []float64, err error) {
	if start < 0 || start+HeaderSamples > len(waveform) {
		return 0, nil, nil, nil, fmt.Errorf("lora: header demodulation: waveform too short")
	}
	total := PreambleSymbols + HeaderSymbols
	bins = dsp.Carve(&rx.arena.i, total+MaxPayload, arenaMinInts)[:0]
	conc = dsp.Carve(&rx.arena.f64, total+MaxPayload, arenaMinFloats)[:0]
	wide = dsp.Carve(&rx.arena.f64, total+MaxPayload, arenaMinFloats)[:0]
	symbol := func(k int, ref []complex128) int {
		b, c, w := rx.demodSymbol(waveform[start+k*SymbolSamples:], ref)
		bins = append(bins, b)
		conc = append(conc, c)
		wide = append(wide, w)
		return b
	}
	for k := 0; k < PreambleUpchirps; k++ {
		if b := symbol(k, rx.dechirpUp); b != 0 {
			return 0, nil, nil, nil, fmt.Errorf("lora: preamble upchirp %d demodulates to %d, want 0", k, b)
		}
	}
	for k := 0; k < SyncDownchirps; k++ {
		if b := symbol(PreambleUpchirps+k, rx.dechirpDn); b != 0 {
			return 0, nil, nil, nil, fmt.Errorf("lora: preamble downchirp %d demodulates to %d, want 0", k, b)
		}
	}
	length := symbol(PreambleSymbols, rx.dechirpUp)
	check := symbol(PreambleSymbols+1, rx.dechirpUp)
	if length < 1 || length > MaxPayload {
		return 0, nil, nil, nil, fmt.Errorf("lora: header length %d outside [1, %d]", length, MaxPayload)
	}
	if check != length^HeaderChecksumMask {
		return 0, nil, nil, nil, fmt.Errorf("lora: header checksum %#x, want %#x", check, length^HeaderChecksumMask)
	}
	return length, bins, conc, wide, nil
}

// FrameSpan decodes the header of a frame known to start at start (e.g.
// found by SynchronizeFirst) and returns the whole frame's sample span.
// This is exactly the amount ReceiveAll advances past a decoded frame. A
// sync point whose preamble or header content is invalid fails here, and
// a scanner that then advances by SyncRefSamples matches ReceiveAll's
// bad-frame advance. The frame body needs no samples past the span (the
// CSS waveform has no modulation tail).
func (rx *Receiver) FrameSpan(waveform []complex128, start int) (int, error) {
	rx.arena.reset() // header demodulation carves arena scratch
	length, _, _, _, err := rx.header(waveform, start)
	if err != nil {
		return 0, err
	}
	return FrameSamples(length), nil
}

// DecodeAt runs the post-synchronization receive pipeline on a frame
// known to start at start, skipping the preamble search. syncPeak is
// recorded in the Reception.
//
// The returned Reception is a view into receiver-owned scratch, valid
// until the receiver's next Receive/ReceiveAll/DecodeAt/FrameSpan call;
// use Reception.Copy to keep it longer.
func (rx *Receiver) DecodeAt(waveform []complex128, start int, syncPeak float64) (*Reception, error) {
	rx.arena.reset()
	return rx.decodeFrom(waveform, start, syncPeak)
}

// decodeFrom demodulates a whole frame starting at start. The Reception
// is carved from the receiver's frame arena (scratch lifetime).
func (rx *Receiver) decodeFrom(waveform []complex128, start int, peak float64) (*Reception, error) {
	rec := &dsp.Carve(&rx.arena.slots, 1, arenaMinSlots)[0]
	*rec = Reception{}
	rec.StartSample = start
	rec.SyncPeak = peak
	length, bins, conc, wide, err := rx.header(waveform, start)
	if err != nil {
		return rec, err
	}
	if start+FrameSamples(length) > len(waveform) {
		return rec, fmt.Errorf("lora: frame body: waveform too short (%d of %d payload symbols buffered)",
			(len(waveform)-start)/SymbolSamples-(PreambleSymbols+HeaderSymbols), length)
	}
	payload := dsp.Carve(&rx.arena.bytes, length, arenaMinBytes)
	for k := 0; k < length; k++ {
		b, c, w := rx.demodSymbol(waveform[start+(PreambleSymbols+HeaderSymbols+k)*SymbolSamples:], rx.dechirpUp)
		bins = append(bins, b)
		conc = append(conc, c)
		wide = append(wide, w)
		payload[k] = byte(b)
	}
	rec.SymbolBins = bins
	rec.Concentrations = conc
	rec.WideConcentrations = wide
	var off float64
	for _, c := range conc {
		off += 1 - c
	}
	rec.OffPeakRatio = off / float64(len(conc))
	rec.Payload = payload
	return rec, nil
}

// Receive synchronizes and decodes one frame from the waveform. The
// returned Reception is owned by the caller (deep-copied out of the
// receiver's scratch) and stays valid forever.
func (rx *Receiver) Receive(waveform []complex128) (*Reception, error) {
	start, peak, err := rx.SynchronizeFirst(waveform)
	if err != nil {
		return &Reception{SyncPeak: peak}, err
	}
	rx.arena.reset()
	rec, err := rx.decodeFrom(waveform, start, peak)
	return rec.Copy(), err
}

// ReceiveAll extracts successive frames from one capture: after each
// decoded frame the search resumes past its end. Decode failures after a
// successful sync advance past the bad sync point rather than aborting.
// maxFrames bounds the output (0 = no bound). The advance rules mirror
// zigbee.(*Receiver).ReceiveAll, which is what makes the streaming
// scanner's chunked scan byte-identical to this batch path.
//
// The returned Receptions are views into receiver-owned scratch, all
// simultaneously valid until the receiver's next
// Receive/ReceiveAll/DecodeAt/FrameSpan call; use Reception.Copy to keep
// one longer.
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
		rec, err := rx.decodeFrom(waveform[offset:], start, peak)
		if err != nil {
			// Bad frame: skip past this sync point and keep searching.
			offset += start + len(rx.syncRef)
			continue
		}
		rec.StartSample += offset
		out = append(out, rec)
		offset = rec.StartSample + FrameSamples(len(rec.Payload))
	}
	rx.arena.outs = out
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}
