package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"hideseek/internal/emulation"
	"hideseek/internal/iq"
	"hideseek/internal/lora"
	"hideseek/internal/zigbee"
)

// Every input is a pure function of the workload seed. Payload lengths,
// SNRs and gap lengths are fixed stratified sets. Lengths and gaps sit in
// one fixed layout (layoutRNG), so every seed offers the same work in the
// same places and the latency distribution keeps its shape from seed to
// seed; the seed permutes the SNRs and draws the payload bytes and noise.

// noiseStd is the receiver noise floor per I/Q axis. Frames are scaled to
// their SNR against it, so gaps and frames share one AWGN channel.
const noiseStd = 0.05

// Workload sizes.
const (
	zbFrames       = 32 // frames per zigbee-stream block
	zbMinPSDU      = 5
	zbMinSNR       = 10.0
	zbMaxSNR       = 30.0
	zbMinGap       = 1500
	zbMaxGap       = 4500
	loraCaptures   = 8 // half carry one frame, half two
	loraMinPayload = 2
	loraMaxPayload = 16
	loraMinSNR     = 20.0
	loraMaxSNR     = 40.0
	loraMinGap     = 1000
	loraMaxGap     = 3000
)

// Attack-forge victims: PSDU lengths for ZigBee and payload lengths for
// LoRa, sized so each victim takes a similar share of Emulate's time
// (about 66k and 45k input samples per cycle). The odd input count keeps
// the median forge inside one input's cluster of latencies.
var (
	attackZigbeeLens = stratifiedInts(13, 5, 65)
	attackLoRaLens   = []int{8, 16}
)

// frameLabel is the ground truth of one frame in a capture.
type frameLabel struct {
	Offset   int     `json:"offset"` // first sample of the frame in its capture
	End      int     `json:"end"`    // one past its last sample
	Payload  []byte  `json:"payload"`
	Emulated bool    `json:"emulated"`
	SNRdB    float64 `json:"snr_db"`
}

// capture is one cf32 input with its labels. Samples are the cf32 values
// widened back to float64, i.e. exactly what the daemon decodes.
type capture struct {
	CF32    []byte
	Samples []complex128
	Frames  []frameLabel
}

// stratifiedInts spreads n values evenly over [lo, hi].
func stratifiedInts(n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + int(math.Round(float64(i*(hi-lo))/float64(max(n-1, 1))))
	}
	return out
}

// stratifiedFloats spreads n values evenly over [lo, hi].
func stratifiedFloats(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + float64(i)*(hi-lo)/float64(max(n-1, 1))
	}
	return out
}

// permute returns xs in an order drawn from rng.
func permute[T any](rng *rand.Rand, xs []T) []T {
	out := make([]T, len(xs))
	for i, j := range rng.Perm(len(xs)) {
		out[i] = xs[j]
	}
	return out
}

// workloadRNG derives a workload's generator from the seed, so the three
// workloads never share a stream.
func workloadRNG(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// layoutRNG orders lengths and gaps the same way for every seed.
func layoutRNG() *rand.Rand { return rand.New(rand.NewSource(0)) }

// victimWave is one frame's clean waveform: authentic from the victim
// transmitter, or the attacker's forgery of the same payload.
type victimWave func(payload []byte, emulated bool) ([]complex128, error)

func zigbeeWave(em *emulation.Emulator) victimWave {
	tx := zigbee.NewTransmitter()
	return func(p []byte, emulated bool) ([]complex128, error) {
		if !emulated {
			return tx.TransmitPSDU(p)
		}
		res, err := emulation.ForgePSDU(em, p)
		if err != nil {
			return nil, err
		}
		return res.Emulated4M, nil
	}
}

func loraWave(em *emulation.Emulator) victimWave {
	tx := lora.NewTransmitter()
	return func(p []byte, emulated bool) ([]complex128, error) {
		if !emulated {
			return tx.TransmitPayload(p)
		}
		res, err := emulation.ForgeLoRaPayload(em, p)
		if err != nil {
			return nil, err
		}
		return res.Emulated4M, nil
	}
}

// captureBuilder lays frames into one noise floor.
type captureBuilder struct {
	rng     *rand.Rand
	samples []complex128
	frames  []frameLabel
}

func (b *captureBuilder) gap(n int) {
	for range n {
		b.samples = append(b.samples, b.noise())
	}
}

func (b *captureBuilder) noise() complex128 {
	return complex(b.rng.NormFloat64()*noiseStd, b.rng.NormFloat64()*noiseStd)
}

// frame scales w to snrDB over the noise floor and adds it.
func (b *captureBuilder) frame(w []complex128, l frameLabel) {
	var p float64
	for _, v := range w {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= float64(len(w))
	g := complex(math.Sqrt(2*noiseStd*noiseStd*math.Pow(10, l.SNRdB/10)/p), 0)
	l.Offset = len(b.samples)
	for _, v := range w {
		b.samples = append(b.samples, g*v+b.noise())
	}
	l.End = len(b.samples)
	b.frames = append(b.frames, l)
}

// finish rounds the capture through cf32 exactly as the daemon will see it.
func (b *captureBuilder) finish() (capture, error) {
	var buf bytes.Buffer
	if err := iq.WriteCF32(&buf, b.samples); err != nil {
		return capture{}, err
	}
	rounded, err := iq.ReadCF32(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		return capture{}, err
	}
	return capture{CF32: buf.Bytes(), Samples: rounded, Frames: b.frames}, nil
}

// genZigbeeBlock builds the zigbee-stream block: zbFrames frames with PSDU
// lengths spread up to the 127-byte maximum, authentic and emulated
// alternating, SNRs spread over [zbMinSNR, zbMaxSNR] and a noise gap
// before each frame and after the last. The block is streamed over and
// over, so every gap is longer than the sync reference.
func genZigbeeBlock(seed int64) (capture, error) {
	rng := workloadRNG(seed, 1)
	em, err := emulation.NewEmulator(emulation.AttackConfig{})
	if err != nil {
		return capture{}, err
	}
	wave := zigbeeWave(em)
	lens := permute(layoutRNG(), stratifiedInts(zbFrames, zbMinPSDU, zigbee.MaxPSDULength))
	gaps := permute(layoutRNG(), stratifiedInts(zbFrames+1, zbMinGap, zbMaxGap))
	snrs := permute(rng, stratifiedFloats(zbFrames, zbMinSNR, zbMaxSNR))
	b := &captureBuilder{rng: rng}
	for i := range zbFrames {
		p := make([]byte, lens[i])
		rng.Read(p)
		w, err := wave(p, i%2 == 1)
		if err != nil {
			return capture{}, err
		}
		b.gap(gaps[i])
		b.frame(w, frameLabel{Payload: p, Emulated: i%2 == 1, SNRdB: snrs[i]})
	}
	b.gap(gaps[zbFrames])
	return b.finish()
}

// genLoRaCaptures builds the lora-classify captures: loraCaptures short
// captures, the first half with one frame and the rest with two, frames
// alternating authentic and Wi-Lo forged across the set, in the fixed
// layout order (which also fixes which captures the two client
// connections send at the same time).
func genLoRaCaptures(seed int64) ([]capture, error) {
	rng := workloadRNG(seed, 2)
	em, err := emulation.NewEmulator(emulation.AttackConfig{})
	if err != nil {
		return nil, err
	}
	wave := loraWave(em)
	nFrames := loraCaptures / 2 * 3
	lens := permute(layoutRNG(), stratifiedInts(nFrames, loraMinPayload, loraMaxPayload))
	gaps := permute(layoutRNG(), stratifiedInts(nFrames+loraCaptures, loraMinGap, loraMaxGap))
	snrs := permute(rng, stratifiedFloats(nFrames, loraMinSNR, loraMaxSNR))
	caps := make([]capture, 0, loraCaptures)
	k, g := 0, 0
	for c := range loraCaptures {
		b := &captureBuilder{rng: rng}
		per := 1
		if c >= loraCaptures/2 {
			per = 2
		}
		for range per {
			p := make([]byte, lens[k])
			rng.Read(p)
			w, err := wave(p, k%2 == 1)
			if err != nil {
				return nil, err
			}
			b.gap(gaps[g])
			g++
			b.frame(w, frameLabel{Payload: p, Emulated: k%2 == 1, SNRdB: snrs[k]})
			k++
		}
		b.gap(gaps[g])
		g++
		c, err := b.finish()
		if err != nil {
			return nil, err
		}
		caps = append(caps, c)
	}
	return permute(layoutRNG(), caps), nil
}

// attackInput is one victim frame the attacker forges.
type attackInput struct {
	Proto   string // "zigbee" or "lora"
	Payload []byte
}

// genAttackInputs builds the attack-forge set: the ZigBee PSDUs then the
// LoRa payloads, each with seed-drawn bytes, in a seed-drawn order.
func genAttackInputs(seed int64) []attackInput {
	rng := workloadRNG(seed, 3)
	var in []attackInput
	for _, n := range attackZigbeeLens {
		p := make([]byte, n)
		rng.Read(p)
		in = append(in, attackInput{Proto: "zigbee", Payload: p})
	}
	for _, n := range attackLoRaLens {
		p := make([]byte, n)
		rng.Read(p)
		in = append(in, attackInput{Proto: "lora", Payload: p})
	}
	return permute(rng, in)
}

// inputHash digests captures (cf32 bytes and labels) or attack inputs, so
// a result names exactly what it measured.
func inputHash(caps []capture, attack []attackInput) string {
	h := sha256.New()
	var n [8]byte
	for _, c := range caps {
		binary.LittleEndian.PutUint64(n[:], uint64(len(c.CF32)))
		h.Write(n[:])
		h.Write(c.CF32)
		for _, f := range c.Frames {
			fmt.Fprintf(h, "%d %d %x %v %g;", f.Offset, f.End, f.Payload, f.Emulated, f.SNRdB)
		}
	}
	for _, a := range attack {
		fmt.Fprintf(h, "%s %x;", a.Proto, a.Payload)
	}
	return hex.EncodeToString(h.Sum(nil))
}
