package sim

import (
	"strings"
	"testing"

	"hideseek/internal/channel"
)

func TestSessionDeliversAtHighSNR(t *testing.T) {
	rng := rngFor(21, 1)
	awgn, err := channel.NewAWGN(20, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newLinkSession()
	if err != nil {
		t.Fatal(err)
	}
	s.Channel = awgn
	for i := 0; i < 5; i++ {
		r, err := s.SendCommand([]byte("light on"))
		if err != nil {
			t.Fatal(err)
		}
		if !r.Acked || !r.Delivered || r.Attempts != 1 {
			t.Fatalf("command %d: %+v", i, r)
		}
	}
}

func TestSessionRetriesRecoverMarginalLink(t *testing.T) {
	// DSSS is robust far below 0 dB (≈15 dB processing gain + the matched
	// filter); the marginal region sits near −6 dB, where single
	// transmissions often fail and retries recover most exchanges.
	single, err := SessionReliability(Config{Seed: 22, SNRsDB: []float64{-6}, Trials: 40})
	if err != nil {
		t.Fatal(err)
	}
	if single.MeanAttempts[0] <= 1.05 {
		t.Errorf("mean attempts %g — link too clean for a retry test", single.MeanAttempts[0])
	}
	if single.AckedRate[0] < 0.5 {
		t.Errorf("acked rate %g even with retries", single.AckedRate[0])
	}
}

func TestSessionReliabilityMonotone(t *testing.T) {
	res, err := SessionReliability(Config{Seed: 23, SNRsDB: []float64{-8, -5, 20}, Trials: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.AckedRate[2] < res.AckedRate[0] {
		t.Errorf("acked rate fell with SNR: %v", res.AckedRate)
	}
	if res.AckedRate[2] < 0.95 {
		t.Errorf("acked rate at 20 dB = %g", res.AckedRate[2])
	}
	if res.MeanAttempts[0] < res.MeanAttempts[2] {
		t.Errorf("attempts should shrink with SNR: %v", res.MeanAttempts)
	}
	if !strings.Contains(res.Render().Markdown(), "Session") {
		t.Error("render missing title")
	}
	if _, err := SessionReliability(Config{Seed: 23, SNRsDB: []float64{10}, Trials: -1}); err == nil {
		t.Error("accepted 0 commands")
	}
}
