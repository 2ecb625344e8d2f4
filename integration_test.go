package hideseek

// The capstone integration test: the complete kill chain of the paper,
// end to end, with every subsystem in the loop — gateway TX, attacker
// eavesdropping, CSMA/CA channel access, waveform emulation on the
// 2440 MHz carrier, the victim's three receiver models, the MAC replay
// guard, and the per-frame defense.

import (
	"math/rand"
	"testing"

	"hideseek/internal/channel"
	"hideseek/internal/emulation"
	"hideseek/internal/zigbee"
)

func TestFullKillChain(t *testing.T) {
	rng := rand.New(rand.NewSource(2019)) // the paper's year, why not

	// ── The deployment: a gateway controls a lock on ZigBee channel 17.
	gateway := zigbee.NewTransmitter()
	lockCmd := &zigbee.MACFrame{
		Type: zigbee.FrameData, Seq: 11, PANID: 0x1234,
		Dst: 0x10CC, Src: 0x0001, Payload: []byte("unlock"),
	}
	overTheAir, err := gateway.TransmitFrame(lockCmd)
	if err != nil {
		t.Fatal(err)
	}

	// ── Step 1 (Sec. IV-A): the attacker eavesdrops through a realistic
	// indoor channel.
	mp, err := channel.NewRicianMultipath(2, 0.25, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	awgn, err := channel.NewAWGN(20, rng)
	if err != nil {
		t.Fatal(err)
	}
	eavesdropChannel, err := channel.NewChain(mp, awgn)
	if err != nil {
		t.Fatal(err)
	}
	captured := eavesdropChannel.Apply(overTheAir)

	// The attacker decodes the capture to learn the command format, then
	// forges a FRESH frame (defeating replay detection).
	attackerRx, err := zigbee.NewReceiver(zigbee.ReceiverConfig{SyncThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := attackerRx.Receive(captured)
	if err != nil {
		t.Fatalf("attacker failed to decode the capture: %v", err)
	}
	overheard, err := zigbee.DecodeMACFrame(rec.PSDU)
	if err != nil {
		t.Fatal(err)
	}
	if string(overheard.Payload) != "unlock" {
		t.Fatalf("attacker overheard %q", overheard.Payload)
	}

	// ── Step 2 (Sec. V): emulate a forged frame.
	em, err := emulation.NewEmulator(emulation.AttackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	forged := &zigbee.MACFrame{
		Type: zigbee.FrameData, Seq: overheard.Seq + 40, PANID: overheard.PANID,
		Dst: overheard.Dst, Src: overheard.Src, Payload: overheard.Payload,
	}
	attack, err := emulation.ForgeFrame(em, forged)
	if err != nil {
		t.Fatal(err)
	}

	// ── Step 2.5 (Sec. IV-B): CSMA/CA against the gateway's light traffic.
	access, err := zigbee.PerformCSMA(zigbee.CSMAConfig{},
		zigbee.PeriodicTraffic{PeriodUs: 10000, BusyUs: 500}, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !access.Success {
		t.Fatal("attacker never won channel access against a 5% duty cycle")
	}

	// ── Step 3: radiate at 2440 MHz; the victim front end mixes down.
	onAir := emulation.OnCarrierWaveform(attack.Emulated20M)
	strikeChannel, err := channel.NewAWGN(15, rng)
	if err != nil {
		t.Fatal(err)
	}
	atVictimRF, err := emulation.ReceiveAtZigBee(strikeChannel.Apply(onAir))
	if err != nil {
		t.Fatal(err)
	}

	// ── The victim: every receiver model decodes the forged command.
	for _, mode := range []struct {
		name string
		mode zigbee.DespreadMode
	}{
		{name: "USRP/FM", mode: zigbee.FMDiscriminator},
		{name: "commodity/soft", mode: zigbee.SoftCorrelation},
		{name: "hard-threshold", mode: zigbee.HardThreshold},
	} {
		rx, err := zigbee.NewReceiver(zigbee.ReceiverConfig{Mode: mode.mode, SyncThreshold: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		vrec, err := rx.Receive(atVictimRF)
		if err != nil {
			t.Fatalf("%s receiver rejected the attack: %v", mode.name, err)
		}
		frame, err := zigbee.DecodeMACFrame(vrec.PSDU)
		if err != nil {
			t.Fatalf("%s: MAC decode: %v", mode.name, err)
		}
		if string(frame.Payload) != "unlock" {
			t.Fatalf("%s decoded %q", mode.name, frame.Payload)
		}
	}

	// ── The MAC replay guard does NOT catch the forged frame.
	victimRx, err := zigbee.NewReceiver(zigbee.ReceiverConfig{SyncThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	guard, err := zigbee.NewReplayGuard(16)
	if err != nil {
		t.Fatal(err)
	}
	legitRec, err := victimRx.Receive(eavesdropChannel.Apply(overTheAir))
	if err != nil {
		t.Fatal(err)
	}
	legitFrame, err := zigbee.DecodeMACFrame(legitRec.PSDU)
	if err != nil {
		t.Fatal(err)
	}
	if replay, _ := guard.Check(legitFrame); replay {
		t.Fatal("legit frame flagged")
	}
	vrec, err := victimRx.Receive(atVictimRF)
	if err != nil {
		t.Fatal(err)
	}
	forgedDecoded, err := zigbee.DecodeMACFrame(vrec.PSDU)
	if err != nil {
		t.Fatal(err)
	}
	if replay, _ := guard.Check(forgedDecoded); replay {
		t.Fatal("forged frame (fresh sequence) caught by replay guard — should not happen")
	}

	// ── The PHY defense DOES.
	detector, err := emulation.NewDetector(emulation.DefenseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	verdict, err := detector.AnalyzeReception(vrec)
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.Attack {
		t.Fatalf("defense missed the attack: D² = %g", verdict.DistanceSquared)
	}
	legitVerdict, err := detector.AnalyzeReception(legitRec)
	if err != nil {
		t.Fatal(err)
	}
	if legitVerdict.Attack {
		t.Fatalf("defense flagged the legitimate frame: D² = %g", legitVerdict.DistanceSquared)
	}

	t.Logf("kill chain complete: forged %q decoded by all receivers, replay guard bypassed, "+
		"PHY defense D² = %.3f (legit %.3f)",
		forgedDecoded.Payload, verdict.DistanceSquared, legitVerdict.DistanceSquared)
}
