package compress

import (
	"math"
	"math/rand"
	"testing"

	"apf/internal/core"
	"apf/internal/fl"
	"apf/internal/quantize"
	"apf/internal/scenario/adversary"
	"apf/internal/stats"
)

// TestPrepareUploadLeavesModelAndHeldContribution holds every manager
// stack a client can run to the fl.SyncManager contract on a contribution
// that may alias the model: PrepareUpload never writes x, and the
// contribution it returns stays bit-identical, through what a transport
// does with it (compaction, mask reads), until the round's download. The
// bases are the FedAvg baseline, whose contribution is x itself, and an
// APF manager with random freezing, whose contribution blends x with its
// reference; each runs bare, under every wrapper that transforms the
// upload, and under all of them at once.
func TestPrepareUploadLeavesModelAndHeldContribution(t *testing.T) {
	const dim, rounds, iters = 300, 12, 3
	bases := map[string]func() fl.SyncManager{
		"passthrough": func() fl.SyncManager { return fl.NewPassthroughManager(4) },
		"apf": func() fl.SyncManager {
			return core.NewManager(core.Config{Dim: dim, Seed: 5, CheckEveryRounds: 1,
				Random: core.RandomFreeze{Mode: core.RandomFixed, Prob: 0.5}})
		},
	}
	poison := adversary.Spec{Strategy: adversary.Noise, Count: 1, Onset: 4}
	wrappers := map[string]func(fl.SyncManager) fl.SyncManager{
		"bare":       func(m fl.SyncManager) fl.SyncManager { return m },
		"fp16":       func(m fl.SyncManager) fl.SyncManager { return NewQuantized(m) },
		"stochastic": func(m fl.SyncManager) fl.SyncManager { return NewStochasticQuantized(m, 127, 3, 9) },
		"dp":         func(m fl.SyncManager) fl.SyncManager { return NewDPNoise(m, 0.1, 3) },
		"adversary":  func(m fl.SyncManager) fl.SyncManager { return adversary.Wrap(m, poison, 11, 0) },
		"stacked": func(m fl.SyncManager) fl.SyncManager {
			return adversary.Wrap(NewDPNoise(NewStochasticQuantized(NewQuantized(m), 127, 3, 9), 0.1, 3), poison, 11, 0)
		},
	}
	for bn, base := range bases {
		for wn, wrap := range wrappers {
			t.Run(bn+"/"+wn, func(t *testing.T) {
				m := wrap(base())
				codec, hasCodec := fl.As[fl.CompactCodec](m)
				mr, hasMask := fl.As[fl.MaskReporter](m)
				rng := rand.New(rand.NewSource(7))
				x := make([]float64, dim)
				for j := range x {
					x[j] = rng.NormFloat64()
				}
				for round := 0; round < rounds; round++ {
					// The local phase: steps write x, the manager rolls
					// frozen scalars back after each.
					for i := 0; i < iters; i++ {
						for j := range x {
							x[j] += 0.01 * rng.NormFloat64()
						}
						m.PostIterate(round, x)
					}
					before := append([]float64(nil), x...)
					contrib, _, _ := m.PrepareUpload(round, x)
					if j := firstBitDiff(x, before); j >= 0 {
						t.Fatalf("round %d: PrepareUpload wrote x[%d]: %v, was %v", round, j, x[j], before[j])
					}
					held := append([]float64(nil), contrib...)
					var global []float64
					if hasCodec {
						global = append([]float64(nil), codec.CompactUpload(round, contrib)...)
					} else {
						global = append([]float64(nil), contrib...)
					}
					if hasMask {
						mr.MaskWords()
					}
					for j := range global {
						global[j] += 0.001
					}
					if j := firstBitDiff(contrib, held); j >= 0 {
						t.Fatalf("round %d: held contribution[%d] moved to %v from %v before the download",
							round, j, contrib[j], held[j])
					}
					if j := firstBitDiff(x, before); j >= 0 {
						t.Fatalf("round %d: the upload path wrote x[%d]", round, j)
					}
					if hasCodec {
						global = codec.ExpandDownload(round, global)
					}
					m.ApplyDownload(round, x, global)
				}
			})
		}
	}
}

// firstBitDiff returns the first index where a and b differ bit for bit,
// or -1.
func firstBitDiff(a, b []float64) int {
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return j
		}
	}
	return -1
}

// TestBaselineRoundsAllocateNothing pins the warm round of the two
// baselines that keep per-round scratch — Gaia's upload contribution and
// the stochastic wrapper's re-seeded download quantizer — at zero
// allocations, and the re-seeded download to the sequence a fresh
// per-round quantizer over stats.SplitRNG(sharedSeed, round+777) draws.
func TestBaselineRoundsAllocateNothing(t *testing.T) {
	const dim = 300
	rng := rand.New(rand.NewSource(3))
	x, global := make([]float64, dim), make([]float64, dim)
	for j := range x {
		x[j], global[j] = rng.NormFloat64(), rng.NormFloat64()
	}
	for name, m := range map[string]fl.SyncManager{
		"gaia":       NewGaia(dim, 0.01, 5, 4),
		"stochastic": NewStochasticQuantized(fl.NewPassthroughManager(4), 3, 3, 9),
	} {
		round := 0
		step := func() {
			m.PostIterate(round, x)
			m.PrepareUpload(round, x)
			m.ApplyDownload(round, x, global)
			round++
		}
		step()
		if n := testing.AllocsPerRun(20, step); n != 0 {
			t.Errorf("%s: %v allocations per warm round, want 0", name, n)
		}
	}

	m := NewStochasticQuantized(fl.NewPassthroughManager(4), 3, 3, 9)
	for round := 0; round < 3; round++ {
		want := append([]float64(nil), global...)
		quantize.NewStochasticQuantizer(3, stats.SplitRNG(9, int64(round)+777)).Quantize(want)
		m.ApplyDownload(round, x, global)
		for j := range want {
			if math.Float64bits(x[j]) != math.Float64bits(want[j]) {
				t.Fatalf("round %d scalar %d: re-seeded download %v, fresh quantizer %v", round, j, x[j], want[j])
			}
		}
	}
}
