package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// frozenIn reports whether scalar j of m is frozen during round.
func frozenIn(m *Manager, j, round int) bool {
	m.refreshMask(round)
	return m.mask.Get(j)
}

// permanentState drives a Permanent manager until its oscillating (even)
// scalars are frozen for good, and returns it with the next round.
func permanentState(t *testing.T) (*Manager, int) {
	t.Helper()
	m := newTestManager(4, Permanent{})
	d := newDriver(m, 4)
	for i := 0; i < 60 && m.FrozenRatio() < 0.5; i++ {
		d.step(mixedUpdate)
	}
	if m.FrozenRatio() != 0.5 {
		t.Fatalf("precondition: frozen ratio %v, want the oscillating half", m.FrozenRatio())
	}
	return m, d.round
}

// requirePermanentlyFrozen fails unless r freezes the even scalars and
// trains the odd ones in round next, much later, and in the last round an
// int32 deadline can hold off.
func requirePermanentlyFrozen(t *testing.T, r *Manager, next int) {
	t.Helper()
	for _, round := range []int{next, next + 1_000_000, math.MaxInt32 - 1} {
		for j := 0; j < 4; j++ {
			if got, want := frozenIn(r, j, round), j%2 == 0; got != want {
				t.Fatalf("round %d: scalar %d frozen %v, want %v", round, j, got, want)
			}
		}
	}
}

// TestPermanentDeadlineSurvivesStateCodec: a scalar Permanent froze holds
// the saturated deadline math.MaxInt32, and stays frozen through Snapshot,
// EncodeState, DecodeState and Restore.
func TestPermanentDeadlineSurvivesStateCodec(t *testing.T) {
	m, next := permanentState(t)
	s := m.Snapshot()
	for j, u := range s.UnfreezeAt {
		want := 0
		if j%2 == 0 {
			want = math.MaxInt32
		}
		if u != want {
			t.Fatalf("scalar %d deadline %d, want %d", j, u, want)
		}
	}
	dec, err := DecodeState(EncodeState(s))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(m.cfg, dec)
	if err != nil {
		t.Fatal(err)
	}
	requirePermanentlyFrozen(t, r, next)
}

// TestWideDeadlineRestoresSaturated: a state written with 64-bit deadlines
// holds next + MaxInt32 for a Permanent scalar. It restores frozen, and
// the restored manager is the one the saturated state gives, bit for bit.
func TestWideDeadlineRestoresSaturated(t *testing.T) {
	m, next := permanentState(t)
	s := m.Snapshot()
	wide := *s
	wide.UnfreezeAt = append([]int(nil), s.UnfreezeAt...)
	for j, u := range wide.UnfreezeAt {
		if u == math.MaxInt32 {
			wide.UnfreezeAt[j] = next + math.MaxInt32
		}
	}
	dec, err := DecodeState(EncodeState(&wide))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(m.cfg, dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeState(r.Snapshot()), EncodeState(s)) {
		t.Fatal("a wide-deadline state restores to another manager than the saturated one")
	}
	requirePermanentlyFrozen(t, r, next)
}

// TestQuickReachableDeadlinesFitInt32 holds every deadline a manager
// reaches, under the five policies × three random modes from any starting
// round, below the int32 saturation point, so the int32 form is exact:
// 0 ≤ unfreezeAt ≤ 3·next + 2·step (AIMD and PureAdditive add a step to a
// period no longer than the rounds since the last re-assessment,
// PureMultiplicative doubles it, Fixed(2) is two steps) and 0 ≤
// randomUntil ≤ next + 1 + LenGrowth·next (APF++'s longest draw). Only
// Permanent's deadlines saturate, at exactly math.MaxInt32.
func TestQuickReachableDeadlinesFitInt32(t *testing.T) {
	var stable, random, saturated int
	for policy := 0; policy < 5; policy++ {
		for mode := 0; mode < 3; mode++ {
			f := func(seed int64, every uint8, start uint32) bool {
				step := int(every%5) + 1
				cfg := referenceConfig(97, policy, mode, step, seed%2 == 0, seed)
				_, permanent := cfg.Policy.(Permanent)
				m := NewManager(cfg)
				rng := rand.New(rand.NewSource(seed))
				x := make([]float64, cfg.Dim)
				round := int(start % (1 << 28))
				for i := 0; i < 60; i++ {
					localStep(rng, x, round)
					m.PostIterate(round, x)
					contrib, _, _ := m.PrepareUpload(round, x)
					m.ApplyDownload(round, x, contrib)
					next := round + 1
					s := m.Snapshot()
					for j, u := range s.UnfreezeAt {
						switch {
						case permanent && u == math.MaxInt32:
							saturated++
						case u < 0 || u > 3*next+2*step:
							t.Logf("policy %d mode %d round %d: unfreezeAt[%d] = %d", policy, mode, round, j, u)
							return false
						case u > next:
							stable++
						}
						r := s.RandomUntil[j]
						if r < 0 || r > next+1+int(cfg.Random.LenGrowth*float64(next)) {
							t.Logf("policy %d mode %d round %d: randomUntil[%d] = %d", policy, mode, round, j, r)
							return false
						}
						if r > next {
							random++
						}
					}
					round = next
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if stable == 0 || random == 0 || saturated == 0 {
		t.Fatalf("vacuous: %d stability, %d random and %d saturated deadlines seen", stable, random, saturated)
	}
}
