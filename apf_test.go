package apf_test

import (
	"math/rand"
	"testing"

	"apf"
	"apf/internal/stats"
)

// TestPublicAPIEndToEnd drives the whole library through the public facade
// only: synthesize data, split non-IID, train with APF and the passthrough
// baseline, and verify APF's contract (less traffic, frozen parameters,
// comparable accuracy).
func TestPublicAPIEndToEnd(t *testing.T) {
	const seed = 21
	pool := apf.SynthImages(apf.ImageConfig{
		Classes: 4, Channels: 1, Size: 8, Samples: 280, NoiseStd: 0.6, Seed: seed,
	})
	trainIdx := make([]int, 240)
	for i := range trainIdx {
		trainIdx[i] = i
	}
	testIdx := make([]int, 40)
	for i := range testIdx {
		testIdx[i] = 240 + i
	}
	train, test := pool.Subset(trainIdx), pool.Subset(testIdx)
	parts := apf.PartitionDirichlet(stats.SplitRNG(seed, 1), train.Labels, train.Classes, 3, 1.0)

	model := func(rng *rand.Rand) *apf.Network {
		return apf.NewNetwork(
			apf.NewFlatten(),
			apf.NewDense(rng, "fc1", 64, 24),
			apf.NewTanh(),
			apf.NewDense(rng, "fc2", 24, 4),
		)
	}
	optimizer := func(p []*apf.Param) apf.Optimizer { return apf.NewSGD(p, 0.3, 0, 0) }

	cfg := apf.EngineConfig{
		Rounds:     30,
		LocalIters: 4,
		BatchSize:  16,
		Seed:       seed,
		EvalEvery:  5,
	}

	apfRes := apf.NewEngine(cfg, model, optimizer,
		apf.ManagerFactoryFor(apf.ManagerConfig{
			CheckEveryRounds: 2, Threshold: 0.2, EMAAlpha: 0.9, Seed: seed,
		}),
		train, parts, test).Run()

	baseRes := apf.NewEngine(cfg, model, optimizer,
		func(_, _ int) apf.SyncManager { return apf.NewPassthroughManager(4) },
		train, parts, test).Run()

	if apfRes.CumUpBytes >= baseRes.CumUpBytes {
		t.Errorf("APF up bytes %d not below baseline %d", apfRes.CumUpBytes, baseRes.CumUpBytes)
	}
	if apfRes.Rounds[len(apfRes.Rounds)-1].FrozenRatio <= 0 {
		t.Error("APF froze nothing")
	}
	if apfRes.BestAcc < baseRes.BestAcc-0.15 {
		t.Errorf("APF accuracy %v too far below baseline %v", apfRes.BestAcc, baseRes.BestAcc)
	}
	if baseRes.BestAcc < 0.7 {
		t.Errorf("baseline failed to learn (best %v) — test setup broken", baseRes.BestAcc)
	}
}

// TestFacadeExtensions exercises APF#/APF++ and the Quantized wrapper
// through the public API.
func TestFacadeExtensions(t *testing.T) {
	mgr := apf.NewManager(apf.ManagerConfig{
		Dim:              16,
		CheckEveryRounds: 1,
		Threshold:        0.2,
		EMAAlpha:         0.8,
		Random:           apf.RandomFreeze{Mode: apf.RandomFixed, Prob: 0.5},
		Seed:             3,
	})
	q := apf.NewQuantized(mgr)
	x := make([]float64, 16)
	for round := 0; round < 6; round++ {
		for j := range x {
			x[j] += 0.1
		}
		q.PostIterate(round, x)
		contrib, w, _ := q.PrepareUpload(round, x)
		if w != 1 {
			t.Fatal("unexpected weight")
		}
		q.ApplyDownload(round, x, contrib)
	}
	if mgr.FrozenRatio() < 0 || mgr.FrozenRatio() > 1 {
		t.Errorf("frozen ratio out of range: %v", mgr.FrozenRatio())
	}
}
