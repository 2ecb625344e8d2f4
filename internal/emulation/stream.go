package emulation

import (
	"fmt"

	"hideseek/internal/zigbee"
)

// StreamDetector wraps the per-frame detector with k-of-n alarm logic for
// continuous monitoring: a deployment does not want to page on a single
// noisy frame, but k flagged frames within the last n is a confident
// intrusion signal. This is the operational wrapper a product would ship
// around the paper's per-waveform test.
type StreamDetector struct {
	det     *Detector
	k, n    int
	history []bool
	next    int
	filled  int
}

// NewStreamDetector builds the wrapper: alarm when ≥ k of the last n
// frames are flagged.
func NewStreamDetector(cfg DefenseConfig, k, n int) (*StreamDetector, error) {
	if n < 1 || n > 4096 {
		return nil, fmt.Errorf("emulation: window %d outside [1, 4096]", n)
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("emulation: k %d outside [1, %d]", k, n)
	}
	det, err := NewDetector(cfg)
	if err != nil {
		return nil, err
	}
	return &StreamDetector{det: det, k: k, n: n, history: make([]bool, n)}, nil
}

// Observe scores one reception. It returns the frame verdict and whether
// the k-of-n alarm condition now holds.
func (s *StreamDetector) Observe(rec *zigbee.Reception) (Verdict, bool, error) {
	verdict, err := s.det.AnalyzeReception(rec)
	if err != nil {
		return Verdict{}, false, err
	}
	s.history[s.next] = verdict.Attack
	s.next = (s.next + 1) % s.n
	if s.filled < s.n {
		s.filled++
	}
	return verdict, s.Alarm(), nil
}

// Alarm reports whether ≥ k of the currently held frames are flagged.
func (s *StreamDetector) Alarm() bool {
	count := 0
	for i := 0; i < s.filled; i++ {
		if s.history[i] {
			count++
		}
	}
	return count >= s.k
}

// Reset clears the window.
func (s *StreamDetector) Reset() {
	for i := range s.history {
		s.history[i] = false
	}
	s.next, s.filled = 0, 0
}
