package tensor

import "math/rand"

// FillRandn fills t with independent Gaussian samples of the given mean and
// standard deviation, drawn from rng.
func (t *Tensor) FillRandn(rng *rand.Rand, mean, std float64) {
	for i := range t.Data {
		t.Data[i] = mean + std*rng.NormFloat64()
	}
}

// FillUniform fills t with independent uniform samples in [lo, hi).
func (t *Tensor) FillUniform(rng *rand.Rand, lo, hi float64) {
	for i := range t.Data {
		t.Data[i] = lo + (hi-lo)*rng.Float64()
	}
}

// Randn returns a new tensor filled with Gaussian samples.
func Randn(rng *rand.Rand, mean, std float64, shape ...int) *Tensor {
	t := New(shape...)
	t.FillRandn(rng, mean, std)
	return t
}
