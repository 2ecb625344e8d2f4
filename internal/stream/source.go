package stream

import (
	"fmt"
	"io"
	"math/rand"
)

// Source yields blocks of complex baseband samples. ReadBlock fills dst
// with up to len(dst) samples and returns the count; it returns io.EOF
// (with n == 0) once the stream is exhausted — a short final block comes
// back with a nil error first. iq.ReaderCF32 satisfies Source directly,
// so any io.Reader carrying cf32 bytes (file, socket, SDR pipe) plugs in.
type Source interface {
	ReadBlock(dst []complex128) (int, error)
}

// SliceSource streams an in-memory capture.
type SliceSource struct {
	samples []complex128
	off     int
}

// NewSliceSource wraps a capture; the slice is read, not copied.
func NewSliceSource(samples []complex128) *SliceSource {
	return &SliceSource{samples: samples}
}

// ReadBlock implements Source.
func (s *SliceSource) ReadBlock(dst []complex128) (int, error) {
	if s.off >= len(s.samples) {
		return 0, io.EOF
	}
	n := copy(dst, s.samples[s.off:])
	s.off += n
	return n, nil
}

// BuildCapture renders a synthetic capture: the given waveforms
// (authentic transmissions, emulated attacks, or a mix) with gap
// noise-floor samples before, between, and after them. noiseStd sets the
// Gaussian noise floor per I/Q axis (it must be positive: a silent gap has
// zero energy, which no real front end ever sees and which makes
// normalized correlation degenerate). The rng makes the capture
// deterministic by seed. Stream it through a SliceSource; the batch
// receivers can read the exact same samples.
func BuildCapture(rng *rand.Rand, noiseStd float64, gap int, waveforms ...[]complex128) ([]complex128, error) {
	if rng == nil {
		return nil, fmt.Errorf("stream: nil rng")
	}
	if noiseStd <= 0 {
		return nil, fmt.Errorf("stream: noise floor std %v must be positive", noiseStd)
	}
	if gap < 0 {
		return nil, fmt.Errorf("stream: negative gap %d", gap)
	}
	total := gap
	for _, w := range waveforms {
		total += len(w) + gap
	}
	out := make([]complex128, 0, total)
	appendNoise := func(n int) {
		for i := 0; i < n; i++ {
			out = append(out, complex(rng.NormFloat64()*noiseStd, rng.NormFloat64()*noiseStd))
		}
	}
	appendNoise(gap)
	for _, w := range waveforms {
		out = append(out, w...)
		appendNoise(gap)
	}
	return out, nil
}
