package fl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refFold is Partial.Fold's column loop one coordinate at a time, every
// product through fixFromFloat and every sum through fixAdd: the reference
// the fold kernel (addHalves, addSpan) must match bit for bit on admitted
// contributions.
func refFold(cols []uint64, contrib []float64, w float64) {
	for j, v := range contrib {
		plo, phi := fixFromFloat(w * v)
		c := cols[2*j : 2*j+2]
		c[0], c[1] = fixAdd(c[0], c[1], plo, phi)
	}
}

// foldMix returns n scalars in runs of one kind each, so the fold's fast
// loop starts and stops at random coordinates on both sides of block and
// shard edges: model-sized values, integers (every product wide), any
// magnitude up to 2^62, the edges of fixFromHalf's range, zeros and
// subnormals, and 1e300. The caller pulls them inside the admission bound
// (inBound) before folding.
func foldMix(rng *rand.Rand, n int) []float64 {
	edges := []float64{0, math.Copysign(0, -1), 0.5, -0.5, math.Nextafter(0.5, 0), math.Nextafter(-0.5, 0),
		0x1p-1074, -0x1p-1070, 0x1p-65, 3 * 0x1p-66, 1e300}
	v := make([]float64, n)
	for i := 0; i < n; {
		kind := rng.Intn(8)
		for run := 1 + rng.Intn(300); run > 0 && i < n; run, i = run-1, i+1 {
			switch kind {
			case 0, 1, 2:
				v[i] = rng.NormFloat64() * 0.05
			case 3:
				v[i] = float64(rng.Intn(17) - 8)
			case 4:
				v[i] = math.Ldexp(rng.Float64()-0.5, rng.Intn(130)-66)
			case 5:
				v[i] = edges[rng.Intn(len(edges))]
			case 6:
				v[i] = math.Ldexp(float64(rng.Intn(3)-1), 62)
			case 7:
				v[i] = 1e300
			}
		}
	}
	return v
}

// foldWeight draws a client weight: zero (a skipped client), the small
// integers of the synthetic benchmarks, a random fraction, or a weight
// large enough to widen every product.
func foldWeight(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1, 2:
		return float64(1 + rng.Intn(3))
	case 3:
		return 1e10
	default:
		return rng.Float64() * 4
	}
}

// TestWeightedMeanMatchesColumnReference holds the block fold of the mean
// to serialWeightedMean, one coordinate at a time, bit for bit, over
// random admitted mixes (every product below the 2^43 bound, both
// conversion paths) at dimensions that cut blocks and shards at every
// alignment, with 1 and 3 workers.
func TestWeightedMeanMatchesColumnReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, workers := range []int{1, 3} {
		a := NewAggregator(workers)
		for _, dim := range []int{1, foldBlockLen - 1, foldBlockLen, foldBlockLen + 1, minChunk + 300, 60013} {
			trials := 12
			if dim > 10_000 {
				trials = 3
			}
			for trial := 0; trial < trials; trial++ {
				clients := 1 + rng.Intn(6)
				contribs := make([][]float64, clients)
				weights := make([]float64, clients)
				for k := range contribs {
					if weights[k] = foldWeight(rng); weights[k] != 0 || rng.Intn(2) == 0 {
						contribs[k] = foldMix(rng, dim)
						inBound(contribs[k], weights[k])
					}
				}
				checkMeanMatches(t, a, fmt.Sprintf("workers=%d dim=%d trial=%d", workers, dim, trial), contribs, weights)
			}
		}
		a.Close()
	}
}

func checkMeanMatches(t *testing.T, a *Aggregator, name string, contribs [][]float64, weights []float64) {
	t.Helper()
	dim := 0
	for _, c := range contribs {
		dim = max(dim, len(c))
	}
	got, want := make([]float64, dim), make([]float64, dim)
	if g, w := a.weightedMean(got, contribs, weights), serialWeightedMean(want, contribs, weights); g != w {
		t.Fatalf("%s: aggregated=%v, reference says %v", name, g, w)
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: coordinate %d = %v (%#x), reference %v (%#x)",
				name, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// TestPartialFoldMatchesColumnReference holds Partial.Fold to refFold:
// the same column words after every admitted fold, and a contribution
// with a weighted product of 2^43 or more refused at its first such scalar
// with the columns left as they were. Columns start fresh (zero) on the
// first fold and from earlier sums on every later one; every other fold is
// pulled inside the bound (inBound), so admitted products of every
// magnitude below it reach both column words.
func TestPartialFoldMatchesColumnReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4848))
	for _, dim := range []int{1, foldBlockLen - 1, foldBlockLen + 1, minChunk + 300} {
		for trial := 0; trial < 30; trial++ {
			var p Partial
			ref := make([]uint64, 2*dim)
			for fold := 0; fold < 6; fold++ {
				contrib, w := foldMix(rng, dim), foldWeight(rng)
				if (fold+trial)%2 == 0 {
					inBound(contrib, w)
				}
				checkFoldMatches(t, fmt.Sprintf("dim=%d trial=%d fold=%d", dim, trial, fold), &p, ref, contrib, w)
			}
		}
	}
}

// inBound scales each scalar of contrib whose product at weight w is 2^43
// or more down by 2^-64 steps until the product is below it.
func inBound(contrib []float64, w float64) {
	for j := range contrib {
		for !(math.Abs(w*contrib[j]) < 0x1p43) {
			contrib[j] = math.Ldexp(contrib[j], -64)
		}
	}
}

// checkFoldMatches folds contrib into p and, when the bound admits it,
// into the reference columns, and fails unless both agree.
func checkFoldMatches(t *testing.T, name string, p *Partial, ref []uint64, contrib []float64, w float64) {
	t.Helper()
	before := slices.Clone(p.Cols)
	err := p.Fold(contrib, w)
	for j, v := range contrib {
		if !(math.Abs(w*v) < 0x1p43) {
			want := fmt.Sprintf("scalar %d is %v", j, v)
			if !errors.Is(err, ErrAccumOverflow) || !strings.HasSuffix(err.Error(), want) {
				t.Fatalf("%s: Fold error %v, want overflow at %s", name, err, want)
			}
			if !slices.Equal(p.Cols, before) {
				t.Fatalf("%s: refused fold changed the columns", name)
			}
			return
		}
	}
	if err != nil {
		t.Fatalf("%s: Fold refused an admitted contribution: %v", name, err)
	}
	refFold(ref, contrib, w)
	for i := range ref {
		if p.Cols[i] != ref[i] {
			t.Fatalf("%s: column word %d = %#x, reference %#x", name, i, p.Cols[i], ref[i])
		}
	}
}
