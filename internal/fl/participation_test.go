package fl

import (
	"testing"

	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/stats"
)

func TestParticipationActivatesSubset(t *testing.T) {
	train := testDataset(90, 20)
	mgrs := make([]*recordingManager, 4)
	mf := func(clientID, dim int) SyncManager {
		m := &recordingManager{dim: dim, contrib: 1, weight: 1}
		mgrs[clientID] = m
		return m
	}
	rng := stats.SplitRNG(20, 0)
	parts := data.PartitionIID(rng, train.Len(), 4)
	cfg := baseConfig()
	cfg.Rounds = 10
	cfg.LocalIters = 2
	cfg.EvalEvery = 0
	cfg.Participation = 0.5
	New(cfg, mlpFactory, sgdFactory(0.1), mf, train, parts, nil).Run()

	// Half of 4 clients per round over 10 rounds: 2 × 2 iterations × 10 =
	// 40 iterations total across clients.
	total := 0
	for i, m := range mgrs {
		total += m.iterations
		if m.iterations == 2*2*10 {
			t.Errorf("client %d participated every round at 50%% participation", i)
		}
	}
	if total != 2*2*10 {
		t.Errorf("total iterations %d, want 40 (2 clients × 2 iters × 10 rounds)", total)
	}
}

func TestParticipationKeepsAPFMasksConsistent(t *testing.T) {
	train, test := splitDataset(240, 80, 21)
	rng := stats.SplitRNG(21, 0)
	parts := data.PartitionIID(rng, train.Len(), 4)

	apfManagers := make([]*core.Manager, 4)
	mf := func(clientID, dim int) SyncManager {
		m := core.NewManager(core.Config{
			Dim:              dim,
			CheckEveryRounds: 2,
			Threshold:        0.25,
			EMAAlpha:         0.9,
			Seed:             77,
		})
		apfManagers[clientID] = m
		return m
	}
	cfg := baseConfig()
	cfg.Rounds = 30
	cfg.Participation = 0.5
	res := New(cfg, mlpFactory, sgdFactory(0.3), mf, train, parts, test).Run()

	// The paper's footnote-5 claim: dynamic participation does not break
	// APF, because every client derives the identical mask from the
	// synchronized state it observes.
	w0 := apfManagers[0].MaskWords()
	for c := 1; c < 4; c++ {
		wc := apfManagers[c].MaskWords()
		for i := range w0 {
			if w0[i] != wc[i] {
				t.Fatalf("client %d mask diverged under partial participation", c)
			}
		}
	}
	if res.BestAcc < 0.7 {
		t.Errorf("model failed to learn under partial participation: %v", res.BestAcc)
	}
}

func TestParticipationValidation(t *testing.T) {
	train := testDataset(40, 22)
	rng := stats.SplitRNG(22, 0)
	parts := data.PartitionIID(rng, train.Len(), 2)
	cfg := baseConfig()
	cfg.Participation = 1.5
	defer func() {
		if recover() == nil {
			t.Fatal("participation > 1 did not panic")
		}
	}()
	New(cfg, mlpFactory, sgdFactory(0.1), passthroughFactory, train, parts, nil)
}

func TestParticipationOneMeansEveryone(t *testing.T) {
	train := testDataset(60, 23)
	mgrs := make([]*recordingManager, 3)
	mf := func(clientID, dim int) SyncManager {
		m := &recordingManager{dim: dim, contrib: 1, weight: 1}
		mgrs[clientID] = m
		return m
	}
	rng := stats.SplitRNG(23, 0)
	parts := data.PartitionIID(rng, train.Len(), 3)
	cfg := baseConfig()
	cfg.Rounds = 3
	cfg.LocalIters = 2
	cfg.EvalEvery = 0
	cfg.Participation = 1
	New(cfg, mlpFactory, sgdFactory(0.1), mf, train, parts, nil).Run()
	for i, m := range mgrs {
		if m.iterations != 6 {
			t.Errorf("client %d ran %d iterations, want 6", i, m.iterations)
		}
	}
}
