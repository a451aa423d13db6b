package perturb

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"apf/internal/bitset"
)

func TestWindowMonotoneUpdatesGiveOne(t *testing.T) {
	w := NewWindowTracker(2, 5)
	for i := 0; i < 10; i++ {
		w.Observe([]float64{0.5, -0.25}) // constant-direction updates
	}
	for j := 0; j < 2; j++ {
		if p := w.Perturbation(j); math.Abs(p-1) > 1e-12 {
			t.Errorf("perturbation[%d] = %v, want 1 for monotone updates", j, p)
		}
	}
}

func TestWindowOscillationGivesZero(t *testing.T) {
	w := NewWindowTracker(1, 4)
	for i := 0; i < 8; i++ {
		v := 1.0
		if i%2 == 1 {
			v = -1
		}
		w.Observe([]float64{v})
	}
	if p := w.Perturbation(0); p > 1e-12 {
		t.Errorf("perturbation = %v, want 0 for perfect oscillation", p)
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindowTracker(1, 3)
	// Old positive updates must leave the window.
	for _, v := range []float64{1, 1, 1, -1, -1, -1} {
		w.Observe([]float64{v})
	}
	// Window now holds {-1,-1,-1}: monotone → 1.
	if p := w.Perturbation(0); math.Abs(p-1) > 1e-12 {
		t.Errorf("perturbation = %v, want 1 after eviction", p)
	}
	if w.Observed() != 3 {
		t.Errorf("Observed = %d, want 3", w.Observed())
	}
}

func TestWindowZeroUpdatesAreStable(t *testing.T) {
	w := NewWindowTracker(1, 3)
	w.Observe([]float64{0})
	if p := w.Perturbation(0); p != 0 {
		t.Errorf("zero-movement parameter should read stable, got %v", p)
	}
}

func TestWindowDimensionMismatchPanics(t *testing.T) {
	w := NewWindowTracker(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong-length update")
		}
	}()
	w.Observe([]float64{1})
}

func TestEMAMatchesIntuition(t *testing.T) {
	e := NewEMATracker(2, 0.9)
	for i := 0; i < 50; i++ {
		osc := 1.0
		if i%2 == 1 {
			osc = -1
		}
		e.Observe([]float64{0.5, osc})
	}
	if p := e.Perturbation(0); math.Abs(p-1) > 1e-9 {
		t.Errorf("monotone scalar perturbation = %v, want 1", p)
	}
	if p := e.Perturbation(1); p > 0.2 {
		t.Errorf("oscillating scalar perturbation = %v, want near 0", p)
	}
}

func TestEMAFirstObservationSeedsAverages(t *testing.T) {
	e := NewEMATracker(1, 0.99)
	e.Observe([]float64{2})
	// After a single update the parameter looks fully directional.
	if p := e.Perturbation(0); math.Abs(p-1) > 1e-12 {
		t.Errorf("perturbation after first update = %v, want 1", p)
	}
}

func TestEMAMaskedSkipsFrozen(t *testing.T) {
	e := NewEMATracker(2, 0.5)
	e.Observe([]float64{1, 1})
	before := e.Perturbation(1)
	// Scalar 1 is frozen: its zero deltas must not dilute its statistics.
	for i := 0; i < 6; i++ {
		v := 1.0
		if i%2 == 0 {
			v = -1
		}
		e.ObserveMasked([]float64{v, 0}, func(j int) bool { return j == 1 })
	}
	if got := e.Perturbation(1); got != before {
		t.Errorf("frozen scalar perturbation changed: %v -> %v", before, got)
	}
	// Scalar 0 oscillated: perturbation must have dropped well below 1.
	if got := e.Perturbation(0); got > 0.5 {
		t.Errorf("unfrozen scalar perturbation = %v, want < 0.5", got)
	}
}

func TestTrackerConstructorValidation(t *testing.T) {
	tests := []struct {
		name string
		f    func()
	}{
		{"window dim", func() { NewWindowTracker(0, 5) }},
		{"window len", func() { NewWindowTracker(5, 0) }},
		{"ema dim", func() { NewEMATracker(0, 0.9) }},
		{"ema alpha", func() { NewEMATracker(5, 1.0) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tt.f()
		})
	}
}

// Property: both trackers always produce perturbation values in [0, 1].
func TestQuickPerturbationBounded(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(steps%20) + 1
		w := NewWindowTracker(3, 4)
		e := NewEMATracker(3, 0.95)
		for i := 0; i < n; i++ {
			u := []float64{rng.NormFloat64(), rng.NormFloat64() * 100, 0}
			w.Observe(u)
			e.Observe(u)
		}
		for j := 0; j < 3; j++ {
			for _, p := range []float64{w.Perturbation(j), e.Perturbation(j)} {
				if p < 0 || p > 1 || math.IsNaN(p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the windowed metric matches a direct evaluation of Eq. 1.
func TestQuickWindowMatchesDefinition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		window := 1 + rng.Intn(6)
		total := window + rng.Intn(10)
		w := NewWindowTracker(1, window)
		var history []float64
		for i := 0; i < total; i++ {
			u := rng.NormFloat64()
			history = append(history, u)
			w.Observe([]float64{u})
		}
		// Direct Eq. 1 over the last `window` updates.
		start := len(history) - window
		if start < 0 {
			start = 0
		}
		sum, absSum := 0.0, 0.0
		for _, u := range history[start:] {
			sum += u
			absSum += math.Abs(u)
		}
		want := 0.0
		if absSum > 0 {
			want = math.Abs(sum) / absSum
		}
		return math.Abs(w.Perturbation(0)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEMASnapshotRestore(t *testing.T) {
	e := NewEMATracker(3, 0.9)
	e.Observe([]float64{1, -2, 3})
	e.Observe([]float64{-1, 2, -3})
	s := e.Snapshot()

	r, err := RestoreEMATracker(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seen() != e.Seen() || r.Dim() != e.Dim() {
		t.Fatal("bookkeeping not restored")
	}
	// Mutating the snapshot must not affect the restored tracker
	// (defensive copies).
	s.E[0] = 999
	for j := 0; j < 3; j++ {
		if r.Perturbation(j) != e.Perturbation(j) {
			t.Fatalf("perturbation %d differs after restore", j)
		}
	}
	// Both continue identically.
	e.Observe([]float64{0.5, 0.5, 0.5})
	r.Observe([]float64{0.5, 0.5, 0.5})
	for j := 0; j < 3; j++ {
		if r.Perturbation(j) != e.Perturbation(j) {
			t.Fatalf("post-restore evolution diverged at %d", j)
		}
	}
}

func TestRestoreEMATrackerValidation(t *testing.T) {
	if _, err := RestoreEMATracker(EMAState{Alpha: 0.5, E: []float64{1}, A: []float64{1, 2}}); err == nil {
		t.Error("accepted mismatched lengths")
	}
	if _, err := RestoreEMATracker(EMAState{Alpha: 0.5}); err == nil {
		t.Error("accepted empty snapshot")
	}
	if _, err := RestoreEMATracker(EMAState{Alpha: 1.5, E: []float64{1}, A: []float64{1}}); err == nil {
		t.Error("accepted invalid alpha")
	}
	if _, err := RestoreEMATracker(EMAState{Alpha: 0.5, E: []float64{1}, A: []float64{1}, Seen: 1}); err == nil {
		t.Error("accepted a snapshot without its seeded bitmap")
	}
}

func TestWindowPerturbationAllMatchesScalar(t *testing.T) {
	w := NewWindowTracker(4, 3)
	w.Observe([]float64{1, -1, 0.5, 0})
	w.Observe([]float64{1, 1, -0.5, 0})
	all := w.PerturbationAll(nil)
	for j := 0; j < 4; j++ {
		if all[j] != w.Perturbation(j) {
			t.Fatalf("PerturbationAll[%d] = %v, Perturbation = %v", j, all[j], w.Perturbation(j))
		}
	}
	// Reuses a correctly sized destination.
	dst := make([]float64, 4)
	if got := w.PerturbationAll(dst); &got[0] != &dst[0] {
		t.Error("PerturbationAll reallocated a correctly sized dst")
	}
}

// TestMaskedSeedingMatchesUnmaskedStream is the regression test for
// per-scalar EMA seeding: a scalar that is skipped (frozen) during the
// tracker's first observation must be seeded from its own first genuine
// update, exactly as an unmasked tracker seeing the same stream would.
// The old tracker-global first-call flag blended the late first update
// into a zero baseline, biasing the perturbation low (premature freezing).
func TestMaskedSeedingMatchesUnmaskedStream(t *testing.T) {
	masked := NewEMATracker(2, 0.9)
	masked.ObserveMasked([]float64{999, 1}, func(j int) bool { return j == 0 })
	masked.ObserveMasked([]float64{1, -1}, nil)
	masked.ObserveMasked([]float64{-1, 1}, nil)

	// Scalar 0's genuine stream is {1, -1}.
	ref := NewEMATracker(1, 0.9)
	ref.Observe([]float64{1})
	ref.Observe([]float64{-1})

	if got, want := masked.Perturbation(0), ref.Perturbation(0); got != want {
		t.Fatalf("late-seen scalar perturbation = %v, want %v (seeded from a zero baseline?)", got, want)
	}
}

func TestObserveUnfrozenMatchesObserveMasked(t *testing.T) {
	const dim = 200
	rng := rand.New(rand.NewSource(11))
	a := NewEMATracker(dim, 0.95)
	b := NewEMATracker(dim, 0.95)
	frozen := bitset.New(dim)
	x, base, delta := make([]float64, dim), make([]float64, dim), make([]float64, dim)
	for round := 0; round < 20; round++ {
		frozen.Fill(func(int) bool { return rng.Float64() < 0.6 })
		for j := range delta {
			x[j], base[j] = rng.NormFloat64(), rng.NormFloat64()
			delta[j] = x[j] - base[j]
		}
		a.ObserveUnfrozen(x, base, frozen)
		b.ObserveMasked(delta, frozen.Get)
	}
	if a.Seen() != b.Seen() {
		t.Fatalf("Seen diverged: %d vs %d", a.Seen(), b.Seen())
	}
	for j := 0; j < dim; j++ {
		if a.Perturbation(j) != b.Perturbation(j) {
			t.Fatalf("perturbation diverged at scalar %d: %v vs %v", j, a.Perturbation(j), b.Perturbation(j))
		}
	}
}

func TestSnapshotPreservesPartialSeeding(t *testing.T) {
	orig := NewEMATracker(3, 0.9)
	orig.ObserveMasked([]float64{7, 7, 7}, func(j int) bool { return j == 1 })
	restored, err := RestoreEMATracker(orig.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// Scalar 1 sees its first genuine update after the restore; both
	// trackers must seed it rather than EMA-blend from zero.
	orig.Observe([]float64{1, 5, 1})
	restored.Observe([]float64{1, 5, 1})
	for j := 0; j < 3; j++ {
		if orig.Perturbation(j) != restored.Perturbation(j) {
			t.Fatalf("scalar %d diverged after restore: %v vs %v", j, orig.Perturbation(j), restored.Perturbation(j))
		}
	}
	if restored.Perturbation(1) != 1 {
		t.Fatalf("restored scalar 1 perturbation = %v, want 1 (single seeded observation)", restored.Perturbation(1))
	}
}
