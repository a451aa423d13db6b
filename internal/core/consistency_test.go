package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickMaskConsistencyAcrossClients is the paper's central systems
// invariant as a property test: N managers that observe identical
// synchronized state (but arbitrary private local updates) always compute
// identical freezing masks, for random configurations and update streams —
// including the APF# / APF++ random-freezing modes.
func TestQuickMaskConsistencyAcrossClients(t *testing.T) {
	f := func(seed int64, dimRaw, roundsRaw, modeRaw uint8) bool {
		dim := int(dimRaw%32) + 1
		rounds := int(roundsRaw%40) + 5
		mode := RandomFreezeMode(int(modeRaw)%3) + 1 // Off, Fixed, Growing

		cfg := Config{
			Dim:              dim,
			CheckEveryRounds: 1 + int(seed)&1,
			Threshold:        0.3,
			EMAAlpha:         0.85,
			Seed:             seed,
			Random: RandomFreeze{
				Mode:       mode,
				Prob:       0.4,
				ProbGrowth: 0.02,
				LenGrowth:  0.1,
			},
		}
		const clients = 3
		managers := make([]*Manager, clients)
		xs := make([][]float64, clients)
		rngs := make([]*rand.Rand, clients)
		for c := 0; c < clients; c++ {
			managers[c] = NewManager(cfg)
			xs[c] = make([]float64, dim)
			rngs[c] = rand.New(rand.NewSource(seed + int64(c)*1000))
		}

		for round := 0; round < rounds; round++ {
			contribs := make([][]float64, clients)
			for c := 0; c < clients; c++ {
				// Private local updates: different on every client.
				for j := range xs[c] {
					xs[c][j] += rngs[c].NormFloat64() * 0.1
				}
				managers[c].PostIterate(round, xs[c])
				contrib, _, _ := managers[c].PrepareUpload(round, xs[c])
				contribs[c] = contrib
			}
			global := make([]float64, dim)
			for c := 0; c < clients; c++ {
				for j := range global {
					global[j] += contribs[c][j] / clients
				}
			}
			for c := 0; c < clients; c++ {
				managers[c].ApplyDownload(round, xs[c], global)
			}
			// Masks and local models must agree exactly after every round.
			w0 := managers[0].MaskWords()
			for c := 1; c < clients; c++ {
				wc := managers[c].MaskWords()
				for i := range w0 {
					if w0[i] != wc[i] {
						return false
					}
				}
				for j := range xs[0] {
					if xs[c][j] != xs[0][j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickCompactCodecRoundTrip: for any freezing state, compacting an
// upload and expanding it back reconstructs the dense vector exactly
// (frozen entries from refs, unfrozen from the payload).
func TestQuickCompactCodecRoundTrip(t *testing.T) {
	f := func(seed int64, dimRaw uint8) bool {
		dim := int(dimRaw%64) + 1
		m := NewManager(Config{
			Dim:              dim,
			CheckEveryRounds: 1,
			Threshold:        0.5,
			EMAAlpha:         0.8,
			Seed:             seed,
		})
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, dim)
		for round := 0; round < 12; round++ {
			for j := range x {
				if j%2 == 0 {
					x[j] += float64(1 - 2*(round%2)) // oscillates → freezes
				} else {
					x[j] += rng.NormFloat64()
				}
			}
			m.PostIterate(round, x)
			// The contribution and the expansion share the manager's
			// scratch, so the contribution is copied before expanding.
			scratch, _, _ := m.PrepareUpload(round, x)
			contrib := append([]float64(nil), scratch...)

			compact := m.CompactUpload(round, contrib)
			expanded := m.ExpandDownload(round, compact)
			for j := range contrib {
				if expanded[j] != contrib[j] {
					return false
				}
			}
			m.ApplyDownload(round, x, contrib)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
