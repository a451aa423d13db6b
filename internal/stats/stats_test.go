package stats

import (
	"math"
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
