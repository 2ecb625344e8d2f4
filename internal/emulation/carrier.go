package emulation

import (
	"fmt"
	"math"
	"math/cmplx"

	"hideseek/internal/bits"
	"hideseek/internal/dsp"
	"hideseek/internal/wifi"
)

// CarrierOffsetHz is the spacing between the attacker's WiFi center
// (2440 MHz) and the victim's ZigBee channel 17 (2435 MHz).
const CarrierOffsetHz = 5e6

// CarrierOffsetBins is that spacing in OFDM subcarriers: −16 (the ZigBee
// band sits 5 MHz below the WiFi center, landing on data subcarriers
// [−20, −8] as Sec. V-A-4 describes).
const CarrierOffsetBins = -int(CarrierOffsetHz / wifi.SubcarrierSpacing)

// ShiftBins relocates every entry of a baseband bin list by the carrier
// offset, wrapping modulo 64.
func ShiftBins(basebandBins []int) []int {
	out := make([]int, len(basebandBins))
	for i, k := range basebandBins {
		out[i] = ((signedBin(k)+CarrierOffsetBins)%wifi.NumSubcarriers + wifi.NumSubcarriers) % wifi.NumSubcarriers
	}
	return out
}

// OnCarrierWaveform converts a baseband-centered emulated waveform into the
// waveform the attacker actually radiates from the 2440 MHz WiFi center:
// a −5 MHz shift at the 20 MS/s clock, so the ZigBee content sits in data
// subcarriers [−20,−8].
func OnCarrierWaveform(emulated20M []complex128) []complex128 {
	return mix(emulated20M, -CarrierOffsetHz, wifi.SampleRate)
}

// ReceiveAtZigBee models the victim front end: mix the 2440 MHz WiFi
// signal down to the 2435 MHz ZigBee center (+5 MHz at baseband), low-pass,
// and decimate to the 4 MS/s ZigBee clock.
func ReceiveAtZigBee(onCarrier20M []complex128) ([]complex128, error) {
	shifted := mix(onCarrier20M, CarrierOffsetHz, wifi.SampleRate)
	down, err := dsp.Decimate(shifted, Interpolation)
	if err != nil {
		return nil, fmt.Errorf("emulation: receive at zigbee: %w", err)
	}
	return down, nil
}

func mix(x []complex128, freqHz, sampleRate float64) []complex128 {
	out := make([]complex128, len(x))
	w := 2 * math.Pi * freqHz / sampleRate
	for i, v := range x {
		out[i] = v * cmplx.Rect(1, w*float64(i))
	}
	return out
}

// VerifyCarrierAllocation checks that every shifted bin falls on a legal
// 802.11 data subcarrier (not a pilot, not DC, not a null) so a standards-
// compliant transmitter can actually emit it.
func VerifyCarrierAllocation(shiftedBins []int) error {
	legal := make(map[int]bool, wifi.NumDataSubcarriers)
	for _, k := range wifi.DataSubcarrierIndices {
		legal[wifi.SubcarrierBin(k)] = true
	}
	for _, k := range shiftedBins {
		if !legal[k] {
			return fmt.Errorf("emulation: bin %d (subcarrier %d) is not a data subcarrier", k, signedBin(k))
		}
	}
	return nil
}

// CodedResult reports a full-stack emulation: the attack run through a real
// 802.11 transmitter, with the convolutional code constraining which QAM
// sequences are reachable.
type CodedResult struct {
	// DataBits are the recovered MAC data bits the attacker feeds its WiFi
	// card.
	DataBits []bits.Bit
	// OnCarrier20M is the standards-compliant waveform radiated at the
	// 2440 MHz center.
	OnCarrier20M []complex128
	// AtVictim4M is the waveform after the victim's front end.
	AtVictim4M []complex128
	// TargetHitRate is the fraction of targeted QAM points the coded
	// transmitter reproduced exactly — below 1.0 whenever the target
	// sequence is outside the convolutional code's image.
	TargetHitRate float64
}

// buildCarrierTargets converts an emulation result into the per-symbol
// 48-point data vectors a standards transmitter should emit: the ZigBee
// content lands on the carrier-shifted bins, untargeted subcarriers carry
// the low-energy (+1, +1) grid point (the victim filters them out), and
// everything is rescaled from the segment α grid to the transmitter's
// unit-power constellation.
func buildCarrierTargets(res *Result, constellation *wifi.Constellation) (targets []complex128, shifted []int, binToDataIdx map[int]int, err error) {
	if len(res.QAMPoints) == 0 {
		return nil, nil, nil, fmt.Errorf("emulation: result has no QAM points (SkipQuantization run?)")
	}
	shifted = ShiftBins(res.Bins)
	if err := VerifyCarrierAllocation(shifted); err != nil {
		return nil, nil, nil, err
	}
	binToDataIdx = make(map[int]int, wifi.NumDataSubcarriers)
	for i, k := range wifi.DataSubcarrierIndices {
		binToDataIdx[wifi.SubcarrierBin(k)] = i
	}
	targets = make([]complex128, 0, res.NumSegments*wifi.NumDataSubcarriers)
	for s := 0; s < res.NumSegments; s++ {
		data := make([]complex128, wifi.NumDataSubcarriers)
		alpha := res.Alphas[s]
		filler := complex(alpha, alpha)
		for i := range data {
			data[i] = filler
		}
		for i, k := range shifted {
			data[binToDataIdx[k]] = res.QAMPoints[s][i]
		}
		for i := range data {
			data[i] = data[i] / complex(alpha, 0) * complex(constellation.Norm(), 0)
		}
		targets = append(targets, data...)
	}
	return targets, shifted, binToDataIdx, nil
}

// CodedEmulation pushes an emulation Result through the complete 802.11
// chain: target QAM points → (demap, deinterleave, Viterbi, descramble) →
// data bits → standard transmitter → waveform. This extends the paper's
// simulation (which "ignores the preprocessing") to quantify the extra
// distortion that full standards compliance costs the attacker.
func CodedEmulation(res *Result, tx *wifi.Transmitter) (*CodedResult, error) {
	if res == nil || tx == nil {
		return nil, fmt.Errorf("emulation: nil result or transmitter")
	}
	constellation := tx.Constellation()
	targets, shifted, binToDataIdx, err := buildCarrierTargets(res, constellation)
	if err != nil {
		return nil, err
	}

	dataBits, err := tx.RecoverDataBits(targets)
	if err != nil {
		return nil, fmt.Errorf("emulation: coded emulation: %w", err)
	}
	wave, err := tx.Transmit(dataBits)
	if err != nil {
		return nil, fmt.Errorf("emulation: coded emulation: %w", err)
	}

	// Measure how many targeted points the coded chain reproduced.
	hits, total := 0, 0
	for s := 0; s < res.NumSegments; s++ {
		spec, err := wifi.AnalyzeSymbol(wave[s*wifi.SymbolSamples : (s+1)*wifi.SymbolSamples])
		if err != nil {
			return nil, err
		}
		for _, k := range shifted {
			want := targets[s*wifi.NumDataSubcarriers+binToDataIdx[k]]
			if cmplx.Abs(spec[k]-want) < constellation.Norm() { // within half min-distance
				hits++
			}
			total++
		}
	}

	onCarrier := OnCarrierWaveform(wave)
	atVictim, err := ReceiveAtZigBee(onCarrier)
	if err != nil {
		return nil, err
	}
	return &CodedResult{
		DataBits:      dataBits,
		OnCarrier20M:  onCarrier,
		AtVictim4M:    atVictim,
		TargetHitRate: float64(hits) / float64(total),
	}, nil
}
