package quantize

import (
	"fmt"
	"math"
)

// StochasticQuantizer implements QSGD-style stochastic uniform quantization
// (Alistarh et al. [5], from the paper's §2.2 related-work family): values
// are scaled into `levels` uniform buckets per sign and rounded up or down
// with probability proportional to the remainder, making the quantizer
// unbiased (E[Q(v)] = v). The wire cost per value is
// ceil(log2(2·levels+1)) bits plus the shared scale.
type StochasticQuantizer struct {
	levels int
	rng    Uniform
}

// Uniform is the randomness a StochasticQuantizer draws: one value in
// [0, 1) per scalar (a *rand.Rand, or a stats.SplitStream, which a caller
// can re-seed in place).
type Uniform interface {
	Float64() float64
}

// NewStochasticQuantizer constructs a quantizer with the given number of
// positive levels (e.g. 1 reproduces TernGrad's {-1, 0, +1} grid).
func NewStochasticQuantizer(levels int, rng Uniform) *StochasticQuantizer {
	if levels < 1 {
		panic(fmt.Sprintf("quantize: levels must be ≥ 1, got %d", levels))
	}
	if rng == nil {
		panic("quantize: nil rng")
	}
	return &StochasticQuantizer{levels: levels, rng: rng}
}

// BitsPerValue returns the wire bits each quantized value needs.
func (q *StochasticQuantizer) BitsPerValue() int {
	return bitsFor(2*q.levels + 1)
}

// bitsFor returns ceil(log2(n)) for n ≥ 1.
func bitsFor(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// Quantize rounds xs in place onto the stochastic grid scaled by
// max(|xs|), returning the scale. A zero vector is returned unchanged with
// scale 0.
func (q *StochasticQuantizer) Quantize(xs []float64) (scale float64) {
	for _, v := range xs {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		return 0
	}
	l := float64(q.levels)
	for i, v := range xs {
		t := v / scale * l // in [-levels, levels]
		lo := math.Floor(t)
		frac := t - lo
		qv := lo
		if q.rng.Float64() < frac {
			qv = lo + 1
		}
		xs[i] = qv / l * scale
	}
	return scale
}
