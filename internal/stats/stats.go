// Package stats provides the small statistical helpers the reproduction
// needs: means, percentiles, Dirichlet sampling for non-IID data splits,
// and deterministic RNG stream splitting.
package stats

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, v := range xs {
		s += (v - m) * (v - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between order statistics. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// GammaSample draws one Gamma(shape, 1) variate using the
// Marsaglia–Tsang method (with Ahrens-style boosting for shape < 1).
func GammaSample(rng *rand.Rand, shape float64) float64 {
	if shape <= 0 {
		panic(fmt.Sprintf("stats: Gamma shape must be positive, got %v", shape))
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) · U^(1/a).
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return GammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet draws one sample from a symmetric Dirichlet(alpha) distribution
// of the given dimension. It is used to synthesize non-IID client class
// mixes as in the paper's §7.1 (concentration α=1; α→∞ approaches IID).
func Dirichlet(rng *rand.Rand, alpha float64, dim int) []float64 {
	if dim <= 0 {
		panic(fmt.Sprintf("stats: Dirichlet dimension must be positive, got %d", dim))
	}
	out := make([]float64, dim)
	sum := 0.0
	for i := range out {
		out[i] = GammaSample(rng, alpha)
		sum += out[i]
	}
	if sum == 0 {
		// Degenerate draw (possible only in floating-point corner cases):
		// fall back to uniform.
		for i := range out {
			out[i] = 1 / float64(dim)
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// SplitRNG derives an independent deterministic RNG stream from a base seed
// and a stream index, so that clients, data generators, and managers can be
// seeded reproducibly without sharing rand.Rand state across goroutines.
func SplitRNG(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(splitSeed(seed, stream)))
}

// splitSeed is SplitRNG's SplitMix64-style mixing of (seed, stream) into a
// child seed.
func splitSeed(seed, stream int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// The lags of math/rand's additive lagged-Fibonacci source: from its
// lagLen-th output on, output n is out[n−lagLen] + out[n−lagTap] mod 2⁶⁴.
const (
	lagLen = 607
	lagTap = 273
)

// SplitStream yields SplitRNG(seed, stream).Float64()'s sequence bit for
// bit without a rand.Rand per stream: it reads the source's first lagLen
// outputs once per Reset and continues the source's recurrence itself, a
// block of lagLen outputs at a time, converting each block to its Float64
// values up front. Reset re-seeds the one retained source in place, so a
// SplitStream allocates only on its first Reset.
type SplitStream struct {
	src  rand.Source64
	buf  [lagLen]uint64  // the current block of source outputs
	vals [lagLen]float64 // the block's Float64 values, vals[:n]
	n    int
	next int // next unread index of vals
}

// Reset restarts the stream at SplitRNG(seed, stream)'s first value.
func (s *SplitStream) Reset(seed, stream int64) {
	if s.src == nil {
		s.src = rand.NewSource(0).(rand.Source64)
	}
	s.src.Seed(splitSeed(seed, stream))
	for i := range s.buf {
		s.buf[i] = s.src.Uint64()
	}
	s.convert()
}

// Float64 returns the next value in [0, 1).
func (s *SplitStream) Float64() float64 {
	if s.next == s.n {
		s.nextBlock()
	}
	f := s.vals[s.next]
	s.next++
	return f
}

// nextBlock overwrites buf with the following lagLen outputs, in place:
// ascending, buf[i+lagLen−lagTap] still holds the old block's output when
// i < lagTap, and buf[i−lagTap] already the new block's when i ≥ lagTap.
func (s *SplitStream) nextBlock() {
	for i := 0; i < lagTap; i++ {
		s.buf[i] += s.buf[i+lagLen-lagTap]
	}
	for i := lagTap; i < lagLen; i++ {
		s.buf[i] += s.buf[i-lagTap]
	}
	s.convert()
}

// convert maps buf to Float64 values exactly as rand.Rand.Float64 does: an
// output's low 63 bits over 2⁶³, dropping the output when that rounds to 1
// (rand.Rand draws again).
func (s *SplitStream) convert() {
	n := 0
	for _, v := range s.buf {
		f := float64(int64(v&(1<<63-1))) / (1 << 63)
		s.vals[n] = f
		if f < 1 {
			n++
		}
	}
	s.n, s.next = n, 0
}

// CellRNG derives the deterministic RNG of one cell of a seeded grid, so
// every per-cell decision is a pure function of the seed: it hashes the
// seed and the cell's two coordinates, in the order the caller passes them
// (netsim's (round, client), the adversary's (client, round)), with FNV-1a.
func CellRNG(seed int64, a, b int) *rand.Rand {
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(a))
	binary.LittleEndian.PutUint64(buf[16:], uint64(b))
	h := fnv.New64a()
	h.Write(buf[:])
	return rand.New(rand.NewSource(int64(h.Sum64())))
}
