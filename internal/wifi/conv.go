package wifi

import (
	"fmt"
	mathbits "math/bits"

	"hideseek/internal/bits"
)

// Convolutional code parameters: the industry-standard rate-1/2, K=7 code
// with generators 133/171 (octal) used by 802.11 OFDM PHYs.
const (
	constraintLen = 7
	genA          = 0o133
	genB          = 0o171
	numStates     = 1 << (constraintLen - 1)
)

// erasureBit mirrors Erasure without creating an initialization cycle.
const erasureBit bits.Bit = 2

// ConvEncode runs the rate-1/2 encoder over in (zero initial state) and
// returns the interleaved output stream a0 b0 a1 b1 ...
func ConvEncode(in []bits.Bit) []bits.Bit {
	out := make([]bits.Bit, 0, len(in)*2)
	state := 0 // holds the last 6 input bits, newest in the MSB position
	for _, b := range in {
		reg := int(b)<<(constraintLen-1) | state
		a := bits.Bit(mathbits.OnesCount(uint(reg&genA)) & 1)
		bb := bits.Bit(mathbits.OnesCount(uint(reg&genB)) & 1)
		out = append(out, a, bb)
		state = reg >> 1
	}
	return out
}

// ViterbiDecode performs hard-decision maximum-likelihood decoding of the
// interleaved coded stream, returning the most probable input sequence.
// It tolerates channel bit errors. Positions holding
// Erasure (inserted by Depuncture) cost nothing against either branch.
func ViterbiDecode(coded []bits.Bit) ([]bits.Bit, error) {
	if len(coded)%2 != 0 {
		return nil, fmt.Errorf("wifi: coded length %d is odd", len(coded))
	}
	n := len(coded) / 2
	if n == 0 {
		return nil, nil
	}
	const inf = int(1) << 30
	metric := make([]int, numStates)
	next := make([]int, numStates)
	for s := 1; s < numStates; s++ {
		metric[s] = inf // encoder starts in state 0
	}
	// decisions[t][s] records the predecessor-state LSB choice.
	decisions := make([][]uint8, n)

	// Precompute per-(state,input) outputs.
	type edge struct {
		nextState  int
		outA, outB bits.Bit
	}
	var edges [numStates][2]edge
	for s := 0; s < numStates; s++ {
		for x := 0; x < 2; x++ {
			reg := x<<(constraintLen-1) | s
			edges[s][x] = edge{
				nextState: reg >> 1,
				outA:      bits.Bit(mathbits.OnesCount(uint(reg&genA)) & 1),
				outB:      bits.Bit(mathbits.OnesCount(uint(reg&genB)) & 1),
			}
		}
	}

	prevState := make([][]int, n)
	for t := 0; t < n; t++ {
		a, b := coded[2*t], coded[2*t+1]
		if (a > 1 && a != erasureBit) || (b > 1 && b != erasureBit) {
			return nil, fmt.Errorf("wifi: non-bit value in coded stream at %d", t)
		}
		for s := range next {
			next[s] = inf
		}
		dec := make([]uint8, numStates)
		prev := make([]int, numStates)
		for s := 0; s < numStates; s++ {
			if metric[s] >= inf {
				continue
			}
			for x := 0; x < 2; x++ {
				e := edges[s][x]
				cost := metric[s]
				if a != erasureBit && e.outA != a {
					cost++
				}
				if b != erasureBit && e.outB != b {
					cost++
				}
				if cost < next[e.nextState] {
					next[e.nextState] = cost
					dec[e.nextState] = uint8(x)
					prev[e.nextState] = s
				}
			}
		}
		copy(metric, next)
		decisions[t] = dec
		prevState[t] = prev
	}

	// Trace back from the best final state.
	best := 0
	for s := 1; s < numStates; s++ {
		if metric[s] < metric[best] {
			best = s
		}
	}
	out := make([]bits.Bit, n)
	state := best
	for t := n - 1; t >= 0; t-- {
		out[t] = bits.Bit(decisions[t][state])
		state = prevState[t][state]
	}
	return out, nil
}
