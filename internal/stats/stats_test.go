package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		mean float64
		std  float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{5}, 5, 0},
		{"pair", []float64{1, 3}, 2, 1},
		{"symmetric", []float64{-2, 0, 2}, 0, math.Sqrt(8.0 / 3.0)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); math.Abs(got-tt.mean) > 1e-12 {
				t.Errorf("Mean = %v, want %v", got, tt.mean)
			}
			if got := Std(tt.xs); math.Abs(got-tt.std) > 1e-12 {
				t.Errorf("Std = %v, want %v", got, tt.std)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {12.5, 1.5},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	// Input must remain unsorted.
	if xs[0] != 4 {
		t.Error("Percentile mutated its input")
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of empty slice should be NaN")
	}
}

func TestPercentileRangeCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile(101) did not panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestMax(t *testing.T) {
	if got := Max([]float64{-3, -1, -2}); got != -1 {
		t.Errorf("Max = %v", got)
	}
}

func TestGammaSampleMoments(t *testing.T) {
	rng := SplitRNG(1, 0)
	for _, shape := range []float64{0.5, 1, 2, 5} {
		n := 20000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += GammaSample(rng, shape)
		}
		mean := sum / float64(n)
		// Gamma(shape, 1) has mean = shape.
		if math.Abs(mean-shape)/shape > 0.08 {
			t.Errorf("Gamma(%v) sample mean %v too far from %v", shape, mean, shape)
		}
	}
}

func TestDirichletProperties(t *testing.T) {
	rng := SplitRNG(2, 0)
	for _, alpha := range []float64{0.1, 1, 10} {
		for trial := 0; trial < 50; trial++ {
			d := Dirichlet(rng, alpha, 5)
			sum := 0.0
			for _, v := range d {
				if v < 0 {
					t.Fatalf("negative Dirichlet component %v", v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("Dirichlet components sum to %v", sum)
			}
		}
	}
}

func TestDirichletConcentration(t *testing.T) {
	// Small alpha → skewed draws; large alpha → near-uniform draws.
	rng := SplitRNG(3, 0)
	maxShare := func(alpha float64) float64 {
		total := 0.0
		const trials = 200
		for i := 0; i < trials; i++ {
			d := Dirichlet(rng, alpha, 10)
			m := d[0]
			for _, v := range d[1:] {
				if v > m {
					m = v
				}
			}
			total += m
		}
		return total / trials
	}
	skewed := maxShare(0.1)
	uniform := maxShare(100)
	if skewed < 2*uniform {
		t.Errorf("expected alpha=0.1 draws (max share %v) much more skewed than alpha=100 (%v)", skewed, uniform)
	}
}

func TestSplitRNGIndependence(t *testing.T) {
	a := SplitRNG(7, 0)
	b := SplitRNG(7, 1)
	c := SplitRNG(7, 0)
	same, diff := 0, 0
	for i := 0; i < 100; i++ {
		va, vb, vc := a.Int63(), b.Int63(), c.Int63()
		if va == vc {
			same++
		}
		if va != vb {
			diff++
		}
	}
	if same != 100 {
		t.Error("identical (seed, stream) must give identical streams")
	}
	if diff < 99 {
		t.Error("different streams should diverge")
	}
}

// TestSplitStreamMatchesSplitRNG pins SplitStream to the math/rand stream
// it reproduces: one stream, re-seeded in place, yields
// SplitRNG(seed, stream).Float64()'s values bit for bit for 60 (seed,
// stream) pairs, far past the source's first lagged block, and again after
// each pair's short re-seed.
func TestSplitStreamMatchesSplitRNG(t *testing.T) {
	var s SplitStream
	for _, seed := range []int64{-1 << 62, -1, 0, 1, 2, 7, 11, 35, 123_456_789, 1 << 40} {
		for _, stream := range []int64{0, 1, 2, 5, 100, 1 << 33} {
			for _, n := range []int{200_000, 3} {
				s.Reset(seed, stream)
				want := SplitRNG(seed, stream)
				for i := 0; i < n; i++ {
					if got, w := s.Float64(), want.Float64(); math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("seed %d stream %d: draw %d is %v, want %v", seed, stream, i, got, w)
					}
				}
			}
		}
	}
}

// wordSource is a rand.Source replaying fixed outputs.
type wordSource []uint64

func (w *wordSource) Int63() int64 {
	v := (*w)[0]
	*w = (*w)[1:]
	return int64(v & (1<<63 - 1))
}

func (w *wordSource) Seed(int64) {}

// TestSplitStreamResamplesOne pins math/rand's one quirk that SplitStream
// must keep: an output whose low 63 bits round to 2⁶³ would give 1, so it
// is skipped and the next output drawn, also at the end of a block.
func TestSplitStreamResamplesOne(t *testing.T) {
	words := []uint64{1<<63 - 1, ^uint64(0), 1<<63 - 1<<9, 1<<63 - 1<<10, 1 << 62, 3}
	var s SplitStream
	s.Reset(1, 1)
	copy(s.buf[:], words)
	src := wordSource(words)
	want := rand.New(&src)
	for i := 0; i < 3; i++ {
		if got, w := s.Float64(), want.Float64(); got != w || got >= 1 {
			t.Fatalf("draw %d is %v, want %v", i, got, w)
		}
	}
	if len(src) != 0 || s.next != len(words) {
		t.Fatalf("three draws read %d outputs, want all %d: the three that round to 1 are skipped", s.next, len(words))
	}

	s.Reset(1, 1)
	s.buf[lagLen-1] = 1<<63 - 1
	next := s.buf[0] + s.buf[lagLen-lagTap]
	for i := 0; i < lagLen-1; i++ {
		s.Float64()
	}
	if got, w := s.Float64(), float64(int64(next&(1<<63-1)))/(1<<63); got != w {
		t.Fatalf("draw after a block ending in 1 is %v, want the next block's first %v", got, w)
	}
}

// hitsProbs are the probabilities TestHitsMatchFloat64 draws under: none,
// the least a 63-bit output can hit, APF#'s paper and benchmark settings,
// the largest below 1, and 1.
var hitsProbs = []float64{0, 0x1p-60, 0.5, 0.9, 1 - 0x1p-53, 1}

// floatHits is the reference Hits: one rand.Rand Float64 draw per set bit
// of cand, lowest first, compared with prob.
func floatHits(r *rand.Rand, cand uint64, prob float64) uint64 {
	var hits uint64
	for ; cand != 0; cand &= cand - 1 {
		if r.Float64() < prob {
			hits |= cand & -cand
		}
	}
	return hits
}

// lagSource is math/rand's lagged-Fibonacci recurrence run forward from a
// given first block, one output at a time: the reference for a SplitStream
// whose block was overwritten.
type lagSource struct {
	out []uint64
	n   int
}

func (l *lagSource) Int63() int64 {
	if l.n == len(l.out) {
		l.out = append(l.out, l.out[l.n-lagLen]+l.out[l.n-lagTap])
	}
	l.n++
	return int64(l.out[l.n-1] & (1<<63 - 1))
}

func (l *lagSource) Seed(int64) {}

// TestHitsMatchFloat64 pins Hits, the integer form of APF#'s draws, to the
// Float64 comparisons it replaces: for 24 (seed, stream) pairs and every
// probability of hitsProbs, over empty, full, sparse, high-bit and random
// candidate words (past several block ends), and with Float64 calls
// interleaved as APF++ makes them (a length draw right after each hit). It
// also pins Threshold's boundary and the redraw of outputs that round to
// 1, at the start and at the end of a block.
func TestHitsMatchFloat64(t *testing.T) {
	fixed := []uint64{0, ^uint64(0), 1, 1 << 63, 0x8000_0000_0000_0001, 0x0101_0101_0101_0101, 0xffff_0000_0000_0000}
	words := rand.New(rand.NewSource(3))
	var s SplitStream
	for _, seed := range []int64{-1 << 62, -1, 0, 1, 7, 123_456_789} {
		for _, stream := range []int64{0, 1, 5, 1 << 33} {
			for _, prob := range hitsProbs {
				th := Threshold(prob)
				s.Reset(seed, stream)
				want := SplitRNG(seed, stream)
				for k := 0; k < 64; k++ {
					cand := words.Uint64()
					if k%2 == 0 {
						cand = fixed[k/2%len(fixed)]
					}
					if got, w := s.Hits(cand, th), floatHits(want, cand, prob); got != w {
						t.Fatalf("seed %d stream %d prob %v word %d (%#x): hits %#x, want %#x", seed, stream, prob, k, cand, got, w)
					}
					if k%5 == 0 {
						if got, w := s.Float64(), want.Float64(); got != w {
							t.Fatalf("seed %d stream %d prob %v: Float64 after word %d is %v, want %v", seed, stream, prob, k, got, w)
						}
					}
				}
				// APF++: each candidate draws alone, and a hit draws its
				// length next.
				for k := 0; k < 700; k++ {
					got := s.Hits(1, th) != 0
					if w := want.Float64() < prob; got != w {
						t.Fatalf("seed %d stream %d prob %v: interleaved draw %d hits %v, want %v", seed, stream, prob, k, got, w)
					}
					if got {
						if l, w := s.Float64(), want.Float64(); l != w {
							t.Fatalf("seed %d stream %d prob %v: length draw %d is %v, want %v", seed, stream, prob, k, l, w)
						}
					}
				}
			}
		}
	}

	value := func(v uint64) float64 { return float64(int64(v)) / (1 << 63) }
	for _, prob := range append(hitsProbs, 0x1p-1074, 1e-18, 0.3, 0.75+0x1p-40, 1-0x1p-52) {
		th := Threshold(prob)
		if th > 0 && !(value(th-1) < prob) {
			t.Errorf("Threshold(%v) = %d, but the value of %d, %v, is not below it", prob, th, th-1, value(th-1))
		}
		if th < 1<<63 && value(th) < prob {
			t.Errorf("Threshold(%v) = %d, but its value %v is below it", prob, th, value(th))
		}
	}
	if th := Threshold(1); th != 1<<63-1<<9 {
		t.Errorf("Threshold(1) = %#x, want the first output that rounds to 1, %#x", th, uint64(1<<63-1<<9))
	}

	// A block crafted to hold outputs whose value rounds to 1, both where
	// a word's draws start and where the block ends.
	crafted := []uint64{1<<63 - 1, ^uint64(0), 1<<63 - 1<<9, 1<<63 - 1<<9 - 1, 1 << 62, 3}
	for _, prob := range hitsProbs {
		th := Threshold(prob)
		s.Reset(9, 9)
		copy(s.buf[:], crafted)
		copy(s.buf[lagLen-3:], crafted[:3])
		want := rand.New(&lagSource{out: append([]uint64(nil), s.buf[:]...)})
		for k := 0; k < 24; k++ {
			cand := ^uint64(0) >> (k % 3)
			if got, w := s.Hits(cand, th), floatHits(want, cand, prob); got != w {
				t.Fatalf("crafted block, prob %v word %d: hits %#x, want %#x", prob, k, got, w)
			}
		}
		if got, w := s.Float64(), want.Float64(); got != w {
			t.Fatalf("crafted block, prob %v: the draw after the words is %v, want %v", prob, got, w)
		}
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = math.Mod(v, 1e9)
		}
		p1 = math.Abs(math.Mod(p1, 100))
		p2 = math.Abs(math.Mod(p2, 100))
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		lo, hi := Percentile(xs, p1), Percentile(xs, p2)
		return lo <= hi+1e-9 &&
			Percentile(xs, 0) <= lo+1e-9 &&
			hi <= Percentile(xs, 100)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCellRNGStream pins CellRNG's draws: the network schedules and the
// adversary replay their seeded trials from them, so the hash layout (seed,
// then the two coordinates in the caller's order) must never move. The
// coordinates are ordered, and a negative seed hashes its two's-complement
// bits.
func TestCellRNGStream(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		a, b int
		want uint64
	}{
		{7, 3, 11, 0x54cc555d46447457},
		{7, 11, 3, 0xf11d76b0799fc9b4},
		{-1, 0, 0, 0x7056282e19251252},
	} {
		if got := CellRNG(tc.seed, tc.a, tc.b).Uint64(); got != tc.want {
			t.Errorf("CellRNG(%d, %d, %d) first draw %#x, want %#x", tc.seed, tc.a, tc.b, got, tc.want)
		}
	}
}
