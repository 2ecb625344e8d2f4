package emulation

import (
	"math/cmplx"
	"testing"

	"hideseek/internal/wifi"
	"hideseek/internal/zigbee"
)

func TestShiftBins(t *testing.T) {
	shifted := ShiftBins(DefaultSubcarrierIndices)
	// Signed baseband bins {−3..3} shift to {−19..−13}.
	want := map[int]bool{}
	for s := -19; s <= -13; s++ {
		want[(s+wifi.NumSubcarriers)%wifi.NumSubcarriers] = true
	}
	for _, k := range shifted {
		if !want[k] {
			t.Errorf("shifted bin %d (signed %d) unexpected", k, signedBin(k))
		}
	}
	if err := VerifyCarrierAllocation(shifted); err != nil {
		t.Errorf("shifted bins not all data subcarriers: %v", err)
	}
}

func TestVerifyCarrierAllocationRejectsPilotAndDC(t *testing.T) {
	if err := VerifyCarrierAllocation([]int{0}); err == nil {
		t.Error("accepted DC")
	}
	if err := VerifyCarrierAllocation([]int{wifi.SubcarrierBin(-21)}); err == nil {
		t.Error("accepted pilot bin")
	}
	if err := VerifyCarrierAllocation([]int{wifi.SubcarrierBin(30)}); err == nil {
		t.Error("accepted null bin")
	}
}

func TestOnCarrierRoundTrip(t *testing.T) {
	// Shift to the WiFi carrier and back through the victim front end must
	// reproduce the baseband emulated waveform (modulo filter transients).
	obs := observeFrame(t, []byte("00000"))
	res := emulate(t, obs)
	onCarrier := OnCarrierWaveform(res.Emulated20M)
	atVictim, err := ReceiveAtZigBee(onCarrier)
	if err != nil {
		t.Fatal(err)
	}
	if len(atVictim) != len(res.Emulated4M) {
		t.Fatalf("victim stream %d samples, want %d", len(atVictim), len(res.Emulated4M))
	}
	guard := 50
	var worst float64
	for i := guard; i < len(atVictim)-guard; i++ {
		if d := cmplx.Abs(atVictim[i] - res.Emulated4M[i]); d > worst {
			worst = d
		}
	}
	if worst > 0.1 {
		t.Errorf("worst deviation after carrier round trip = %g", worst)
	}
}

func TestOnCarrierWaveformDecodesAtVictim(t *testing.T) {
	// Full Sec. V-A-4 path: attack → radiate at 2440 MHz → victim front end
	// at 2435 MHz → ZigBee receiver decodes the control message.
	payload := []byte("unlock")
	obs := observeFrame(t, payload)
	res := emulate(t, obs)
	atVictim, err := ReceiveAtZigBee(OnCarrierWaveform(res.Emulated20M))
	if err != nil {
		t.Fatal(err)
	}
	rx, err := zigbee.NewReceiver(zigbee.ReceiverConfig{SyncThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rx.Receive(atVictim)
	if err != nil {
		t.Fatalf("victim rejected on-carrier attack: %v", err)
	}
	if string(rec.PSDU) != string(payload) {
		t.Errorf("decoded %q, want %q", rec.PSDU, payload)
	}
}

func TestCodedEmulation(t *testing.T) {
	obs := observeFrame(t, []byte{0x0F})
	res := emulate(t, obs)
	tx, err := wifi.NewTransmitter(wifi.QAM64, 0x5D)
	if err != nil {
		t.Fatal(err)
	}
	coded, err := CodedEmulation(res, tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(coded.DataBits) != res.NumSegments*tx.BitsPerOFDMSymbol() {
		t.Errorf("recovered %d data bits, want %d", len(coded.DataBits), res.NumSegments*tx.BitsPerOFDMSymbol())
	}
	if len(coded.OnCarrier20M) != res.NumSegments*wifi.SymbolSamples {
		t.Errorf("on-carrier waveform %d samples", len(coded.OnCarrier20M))
	}
	if coded.TargetHitRate <= 0 || coded.TargetHitRate > 1 {
		t.Errorf("hit rate = %g", coded.TargetHitRate)
	}
	// The rate-1/2 code constrains reachable QAM sequences, so exact
	// reproduction of arbitrary targets must be partial — if it were 100%
	// the measurement would be vacuous.
	if coded.TargetHitRate == 1 {
		t.Error("hit rate exactly 1 — coding constraint not exercised")
	}
	if _, err := CodedEmulation(nil, tx); err == nil {
		t.Error("accepted nil result")
	}
	if _, err := CodedEmulation(res, nil); err == nil {
		t.Error("accepted nil transmitter")
	}
	noQ, err := NewEmulator(AttackConfig{SkipQuantization: true})
	if err != nil {
		t.Fatal(err)
	}
	resNoQ, err := noQ.Emulate(obs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CodedEmulation(resNoQ, tx); err == nil {
		t.Error("accepted unquantized result")
	}
}
