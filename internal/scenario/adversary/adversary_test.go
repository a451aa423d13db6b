package adversary

import (
	"math"
	"testing"

	"apf/internal/fl"
)

// fixedManager is a stub inner manager returning a constant contribution.
type fixedManager struct {
	contrib []float64
	post    int
}

func (m *fixedManager) PostIterate(round int, x []float64) { m.post++ }
func (m *fixedManager) PrepareUpload(round int, x []float64) ([]float64, float64, int64) {
	return m.contrib, 1, int64(len(m.contrib)) * 4
}
func (m *fixedManager) ApplyDownload(round int, x, global []float64) int64 {
	copy(x, global)
	return int64(len(global)) * 4
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func TestWrapNoneIsIdentity(t *testing.T) {
	t.Parallel()
	inner := &fixedManager{contrib: []float64{1, 2}}
	if got := Wrap(inner, Spec{Strategy: None, Count: 1}, 1, 0); got != fl.SyncManager(inner) {
		t.Error("inactive spec should return the inner manager unchanged")
	}
	if got := Wrap(inner, Spec{Strategy: Scale, Count: 0}, 1, 0); got != fl.SyncManager(inner) {
		t.Error("zero-count spec should return the inner manager unchanged")
	}
}

func TestAttacksOnsetAndDeterminism(t *testing.T) {
	t.Parallel()
	s := Spec{Strategy: Scale, Count: 1, Onset: 3}
	for r := 0; r < 3; r++ {
		if s.Attacks(r) {
			t.Errorf("attacked round %d before onset", r)
		}
	}
	for r := 3; r < 8; r++ {
		if !s.Attacks(r) {
			t.Errorf("skipped round %d past onset", r)
		}
	}
	if (Spec{Strategy: Scale, Onset: 3}).Attacks(5) {
		t.Error("a zero-count spec attacked")
	}
}

func TestScalePoisonsOnlyAttackedRounds(t *testing.T) {
	t.Parallel()
	base := []float64{1, -2, 3}
	inner := &fixedManager{contrib: append([]float64(nil), base...)}
	m := Wrap(inner, Spec{Strategy: Scale, Count: 1, Onset: 2}, 1, 0)

	contrib, w, up := m.PrepareUpload(1, nil) // before onset: pass-through
	if w != 1 || up != 12 {
		t.Errorf("weight/bytes not forwarded: %v %v", w, up)
	}
	for i, x := range contrib {
		if x != base[i] {
			t.Errorf("pre-onset contrib mutated: %v", contrib)
		}
	}

	poisoned, _, _ := m.PrepareUpload(2, nil)
	for i, x := range poisoned {
		if x != 8*base[i] {
			t.Errorf("scalar %d = %v, want %v", i, x, 8*base[i])
		}
	}
	// The inner manager's scratch must not be mutated behind its back.
	for i, x := range inner.contrib {
		if x != base[i] {
			t.Errorf("inner contrib mutated at %d: %v", i, x)
		}
	}
}

func TestSignFlipPreservesNorm(t *testing.T) {
	t.Parallel()
	base := []float64{1, -2, 3, 0.5}
	inner := &fixedManager{contrib: append([]float64(nil), base...)}
	m := Wrap(inner, Spec{Strategy: SignFlip, Count: 1}, 1, 0)
	poisoned, _, _ := m.PrepareUpload(0, nil)
	if math.Abs(norm(poisoned)-norm(base)) > 1e-15 {
		t.Errorf("sign flip changed the norm: %v vs %v", norm(poisoned), norm(base))
	}
	for i, x := range poisoned {
		if x != -base[i] {
			t.Errorf("scalar %d = %v, want %v", i, x, -base[i])
		}
	}
}

func TestEvasionRescalesToHonestMultiple(t *testing.T) {
	t.Parallel()
	base := []float64{3, 4} // norm 5
	inner := &fixedManager{contrib: append([]float64(nil), base...)}
	m := Wrap(inner, Spec{Strategy: Scale, Count: 1, Evasion: 1.5}, 1, 0)
	poisoned, _, _ := m.PrepareUpload(0, nil)
	if got, want := norm(poisoned), 1.5*5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("evasive norm = %v, want %v", got, want)
	}
}

func TestNoiseInflatesNormDeterministically(t *testing.T) {
	t.Parallel()
	base := make([]float64, 256)
	for i := range base {
		base[i] = 0.1
	}
	inner := &fixedManager{contrib: append([]float64(nil), base...)}
	m := Wrap(inner, Spec{Strategy: Noise, Count: 1}, 9, 0)
	a, _, _ := m.PrepareUpload(0, nil)
	first := append([]float64(nil), a...)

	inner2 := &fixedManager{contrib: append([]float64(nil), base...)}
	m2 := Wrap(inner2, Spec{Strategy: Noise, Count: 1}, 9, 0)
	b, _, _ := m2.PrepareUpload(0, nil)
	for i := range first {
		if first[i] != b[i] {
			t.Fatal("noise attack is not deterministic across runs")
		}
	}
	// Expected inflation ≈ √(1+16); allow a wide statistical band.
	ratio := norm(first) / norm(base)
	if ratio < 3 || ratio > 5.5 {
		t.Errorf("noise norm ratio = %.2f, want ≈ 4.1", ratio)
	}
}

func TestSpecValidate(t *testing.T) {
	t.Parallel()
	good := []Spec{
		{},
		{Strategy: None},
		{Strategy: Scale, Count: 1, Onset: 2, Evasion: 1.5},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %+v: unexpected error %v", s, err)
		}
	}
	bad := []Spec{
		{Strategy: "volt-typo"},
		{Strategy: Scale, Count: -1},
		{Strategy: Scale, Onset: -1},
		{Strategy: Scale, Evasion: -1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v: expected validation error", s)
		}
	}
}
