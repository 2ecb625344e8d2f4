package sim

import (
	"fmt"

	"hideseek/internal/channel"
	"hideseek/internal/runner"
	"hideseek/internal/zigbee"
)

// LinkSession models the complete APP→MAC→PHY exchange of Sec. VII-B: a
// gateway sends acknowledged data frames to a device over a channel, the
// device decodes and replies with MAC ACKs, and the gateway retries up to
// MaxRetries on missing ACKs.
type LinkSession struct {
	// Channel applied to every transmission (both directions).
	Channel channel.Channel
	// MaxRetries bounds gateway retransmissions.
	MaxRetries int

	gatewayAddr uint16
	deviceAddr  uint16
	pan         uint16
	seq         byte

	tx       *zigbee.Transmitter
	rxDevice *zigbee.Receiver
	rxGate   *zigbee.Receiver
}

// newLinkSession wires a gateway↔device pair: the transmitter and both
// receivers, with no channel yet (set Channel before SendCommand).
func newLinkSession() (*LinkSession, error) {
	rxD, err := zigbee.NewReceiver(zigbee.ReceiverConfig{SyncThreshold: 0.3})
	if err != nil {
		return nil, err
	}
	rxG, err := zigbee.NewReceiver(zigbee.ReceiverConfig{SyncThreshold: 0.3})
	if err != nil {
		return nil, err
	}
	return &LinkSession{
		MaxRetries:  3,
		gatewayAddr: 0x0001,
		deviceAddr:  0xB01B,
		pan:         0x1234,
		tx:          zigbee.NewTransmitter(),
		rxDevice:    rxD,
		rxGate:      rxG,
	}, nil
}

// ExchangeResult reports one acknowledged-delivery attempt.
type ExchangeResult struct {
	// Attempts is how many data transmissions were made (1 = no retry).
	Attempts int
	// Delivered is true when the device decoded the command at least once.
	Delivered bool
	// Acked is true when the gateway received an ACK.
	Acked bool
}

// SendCommand runs the acknowledged exchange for one APP payload.
func (s *LinkSession) SendCommand(payload []byte) (*ExchangeResult, error) {
	res := &ExchangeResult{}
	for attempt := 0; attempt <= s.MaxRetries; attempt++ {
		res.Attempts = attempt + 1
		frame := &zigbee.MACFrame{
			Type:    zigbee.FrameData,
			Seq:     s.seq,
			PANID:   s.pan,
			Dst:     s.deviceAddr,
			Src:     s.gatewayAddr,
			Payload: payload,
			AckReq:  true,
		}
		wave, err := s.tx.TransmitFrame(frame)
		if err != nil {
			return nil, fmt.Errorf("sim: session: %w", err)
		}
		rec, err := s.rxDevice.Receive(s.Channel.Apply(wave))
		if err != nil {
			continue // lost downlink; retry
		}
		got, err := zigbee.DecodeMACFrame(rec.PSDU)
		if err != nil || got.Dst != s.deviceAddr || got.PANID != s.pan {
			continue
		}
		res.Delivered = true

		// Device replies with an ACK mirroring the sequence number.
		ack := &zigbee.MACFrame{
			Type:  zigbee.FrameAck,
			Seq:   got.Seq,
			PANID: s.pan,
			Dst:   got.Src,
			Src:   s.deviceAddr,
		}
		ackWave, err := s.tx.TransmitFrame(ack)
		if err != nil {
			return nil, fmt.Errorf("sim: session ack: %w", err)
		}
		ackRec, err := s.rxGate.Receive(s.Channel.Apply(ackWave))
		if err != nil {
			continue // lost uplink; gateway retries
		}
		gotAck, err := zigbee.DecodeMACFrame(ackRec.PSDU)
		if err != nil || gotAck.Type != zigbee.FrameAck || gotAck.Seq != frame.Seq {
			continue
		}
		res.Acked = true
		break
	}
	s.seq++
	return res, nil
}

// SessionReliabilityResult sweeps the acknowledged-delivery rate vs SNR.
type SessionReliabilityResult struct {
	SNRsDB       []float64
	AckedRate    []float64
	MeanAttempts []float64
	Commands     int
}

// SessionReliability measures the full-stack exchange at each SNR.
// Defaults: the marginal −10…0 dB band at 50 commands per point.
func SessionReliability(cfg Config) (*SessionReliabilityResult, error) {
	seed := cfg.Seed
	snrsDB := cfg.SNRsOr(-10, -8, -6, -4, 0)
	commands := cfg.TrialsOr(50)
	if commands < 1 {
		return nil, fmt.Errorf("sim: commands %d < 1", commands)
	}
	res := &SessionReliabilityResult{SNRsDB: snrsDB, Commands: commands}
	for i, snr := range snrsDB {
		snr := snr
		// One acknowledged command per trial, each over a private AWGN
		// realization; the radio hardware (tx + both receivers) is per-worker.
		outcomes, err := runner.Map(pool(), runner.Sweep{Seed: seed, Base: sweepBase(regionSession, i)}, commands,
			newLinkSession,
			func(t runner.Trial, radios *LinkSession) (*ExchangeResult, error) {
				awgn, err := channel.NewAWGN(snr, t.RNG)
				if err != nil {
					return nil, err
				}
				session := *radios
				session.Channel = awgn
				session.seq = byte(t.Index)
				return session.SendCommand([]byte(fmt.Sprintf("%05d", t.Index)))
			})
		if err != nil {
			return nil, err
		}
		acked := 0
		var attempts float64
		for _, r := range outcomes {
			if r.Acked {
				acked++
			}
			attempts += float64(r.Attempts)
		}
		res.AckedRate = append(res.AckedRate, float64(acked)/float64(commands))
		res.MeanAttempts = append(res.MeanAttempts, attempts/float64(commands))
	}
	return res, nil
}

// Render emits the session reliability rows.
func (r *SessionReliabilityResult) Render() *Table {
	t := NewTable(fmt.Sprintf("Session — Acknowledged Delivery over the Full Stack (%d commands/SNR)", r.Commands),
		"SNR (dB)", "acked rate", "mean attempts")
	for i, snr := range r.SNRsDB {
		t.AddRowf(snr, r.AckedRate[i], r.MeanAttempts[i])
	}
	return t
}
