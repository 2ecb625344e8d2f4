package sim

import (
	"math/rand"

	"hideseek/internal/channel"
	"hideseek/internal/runner"
)

// twoClass is the trial kernel of every experiment that compares the
// authentic and the emulated waveform: victim builds a worker's receive
// kit and measure reads one reception on it. paired keeps only the
// trials where both classes succeeded, so the sample sets stay paired
// trial by trial (the D² drivers); otherwise each class keeps its own
// successes, as a streaming defense would see them.
type twoClass[S, M any] struct {
	links   []*Link
	victim  func() (S, error)
	measure func(v S, l *Link, rx []complex128) (M, bool)
	paired  bool
}

// run executes one sweep point on the worker pool. Trial i takes
// links[i%len(links)], draws its channel from the trial RNG, applies it
// to the authentic waveform and then to the emulated one, and measures
// each reception. The emulated class is measured even when the authentic
// one failed: the trial's RNG is private, so that changes no other trial.
// Samples come back in trial order, so aggregates are bit-identical at
// any worker count.
func (k twoClass[S, M]) run(sw runner.Sweep, trials int, newChannel func(rng *rand.Rand) (channel.Channel, error)) (auth, emul []M, err error) {
	type pair struct {
		auth, emul     M
		authOK, emulOK bool
	}
	pairs, err := runner.Map(pool(), sw, trials, k.victim,
		func(t runner.Trial, v S) (pair, error) {
			l := k.links[t.Index%len(k.links)]
			ch, err := newChannel(t.RNG)
			if err != nil {
				return pair{}, err
			}
			var p pair
			p.auth, p.authOK = k.measure(v, l, ch.Apply(l.Original))
			p.emul, p.emulOK = k.measure(v, l, ch.Apply(l.Emulated))
			return p, nil
		})
	if err != nil {
		return nil, nil, err
	}
	for _, p := range pairs {
		if k.paired && !(p.authOK && p.emulOK) {
			continue
		}
		if p.authOK {
			auth = append(auth, p.auth)
		}
		if p.emulOK {
			emul = append(emul, p.emul)
		}
	}
	return auth, emul, nil
}

// awgnAt is the AWGN channel at one SNR, drawn from each trial's RNG.
func awgnAt(snrDB float64) func(rng *rand.Rand) (channel.Channel, error) {
	return func(rng *rand.Rand) (channel.Channel, error) { return channel.NewAWGN(snrDB, rng) }
}

// meanBy is the mean of f over xs, summed in order (0 when empty).
func meanBy[T any](xs []T, f func(T) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += f(x)
	}
	return s / float64(len(xs))
}
