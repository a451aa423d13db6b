package fl

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/nn"
	"apf/internal/opt"
	"apf/internal/stats"
)

// testDataset builds a small learnable image task.
func testDataset(samples int, seed int64) *data.Dataset {
	return data.SynthImages(data.ImageConfig{
		Classes:  4,
		Channels: 1,
		Size:     8,
		Samples:  samples,
		NoiseStd: 0.6,
		Seed:     seed,
	})
}

// splitDataset draws train and test sets from the same distribution (same
// class prototypes) by splitting one generated pool.
func splitDataset(trainN, testN int, seed int64) (train, test *data.Dataset) {
	pool := testDataset(trainN+testN, seed)
	trainIdx := make([]int, trainN)
	for i := range trainIdx {
		trainIdx[i] = i
	}
	testIdx := make([]int, testN)
	for i := range testIdx {
		testIdx[i] = trainN + i
	}
	return pool.Subset(trainIdx), pool.Subset(testIdx)
}

// mlpFactory builds a small model over flattened 8×8 images.
func mlpFactory(rng *rand.Rand) *nn.Network {
	return nn.NewNetwork(
		nn.NewFlatten(),
		nn.NewDense(rng, "fc1", 64, 24),
		nn.NewTanh(),
		nn.NewDense(rng, "fc2", 24, 4),
	)
}

func sgdFactory(lr float64) OptimizerFactory {
	return func(p []*nn.Param) opt.Optimizer { return opt.NewSGD(p, lr, 0, 0) }
}

func passthroughFactory(clientID, dim int) SyncManager { return NewPassthroughManager(4) }

// baseConfig is a fast-but-learnable run.
func baseConfig() Config {
	return Config{
		Rounds:     25,
		LocalIters: 4,
		BatchSize:  16,
		Seed:       1,
		EvalEvery:  5,
	}
}

func TestFedAvgLearns(t *testing.T) {
	train, test := splitDataset(240, 80, 1)
	rng := stats.SplitRNG(1, 77)
	parts := data.PartitionIID(rng, train.Len(), 3)

	e := New(baseConfig(), mlpFactory, sgdFactory(0.3), passthroughFactory, train, parts, test)
	res := e.Run()

	if res.BestAcc < 0.8 {
		t.Errorf("FedAvg best accuracy %v, want ≥ 0.8 on an easy task", res.BestAcc)
	}
	// Full model both ways every round: bytes = rounds × clients × dim × 4.
	wantBytes := int64(25 * 3 * res.Dim * 4)
	if res.CumUpBytes != wantBytes || res.CumDownBytes != wantBytes {
		t.Errorf("bytes up=%d down=%d, want %d", res.CumUpBytes, res.CumDownBytes, wantBytes)
	}
}

func TestEngineIsDeterministic(t *testing.T) {
	train, test := splitDataset(120, 40, 3)
	run := func() *Result {
		rng := stats.SplitRNG(2, 0)
		parts := data.PartitionIID(rng, train.Len(), 2)
		cfg := baseConfig()
		cfg.Rounds = 8
		e := New(cfg, mlpFactory, sgdFactory(0.2), passthroughFactory, train, parts, test)
		return e.Run()
	}
	a, b := run(), run()
	if a.BestAcc != b.BestAcc || a.CumUpBytes != b.CumUpBytes {
		t.Errorf("engine not deterministic: %v/%v vs %v/%v", a.BestAcc, a.CumUpBytes, b.BestAcc, b.CumUpBytes)
	}
}

// recordingManager captures engine→manager interactions for protocol tests.
type recordingManager struct {
	dim        int
	iterations int
	contrib    float64
	weight     float64
	downloaded []float64
}

func (m *recordingManager) PostIterate(_ int, x []float64) { m.iterations++ }

func (m *recordingManager) PrepareUpload(_ int, x []float64) ([]float64, float64, int64) {
	c := make([]float64, m.dim)
	for i := range c {
		c[i] = m.contrib
	}
	return c, m.weight, 0
}

func (m *recordingManager) ApplyDownload(_ int, x, global []float64) int64 {
	m.downloaded = append([]float64(nil), global...)
	return 0
}

func TestAggregationIsWeightedMean(t *testing.T) {
	train := testDataset(60, 5)
	mgrs := make([]*recordingManager, 3)
	mf := func(clientID, dim int) SyncManager {
		m := &recordingManager{dim: dim, contrib: float64(clientID + 1), weight: 1}
		mgrs[clientID] = m
		return m
	}
	rng := stats.SplitRNG(3, 0)
	parts := data.PartitionIID(rng, train.Len(), 3)
	cfg := baseConfig()
	cfg.Rounds = 1
	cfg.EvalEvery = 0
	e := New(cfg, mlpFactory, sgdFactory(0.1), mf, train, parts, nil)
	e.Run()

	// Contributions 1, 2, 3 with equal weights → global = 2 everywhere.
	for _, m := range mgrs {
		for _, v := range m.downloaded {
			if v != 2 {
				t.Fatalf("global = %v, want 2 (mean of 1,2,3)", v)
			}
		}
	}
}

func TestZeroWeightContributionIgnored(t *testing.T) {
	train := testDataset(60, 6)
	mgrs := make([]*recordingManager, 2)
	mf := func(clientID, dim int) SyncManager {
		w := 1.0
		if clientID == 1 {
			w = 0 // withheld (e.g. CMFL irrelevant update)
		}
		m := &recordingManager{dim: dim, contrib: float64(100 * (clientID + 1)), weight: w}
		mgrs[clientID] = m
		return m
	}
	rng := stats.SplitRNG(4, 0)
	parts := data.PartitionIID(rng, train.Len(), 2)
	cfg := baseConfig()
	cfg.Rounds = 1
	cfg.EvalEvery = 0
	e := New(cfg, mlpFactory, sgdFactory(0.1), mf, train, parts, nil)
	e.Run()

	for _, v := range mgrs[0].downloaded {
		if v != 100 {
			t.Fatalf("global = %v, want 100 (only client 0 contributes)", v)
		}
	}
}

// TestEnginePanicsOnManagerLengthFault: a contribution whose values Add
// refuses is withheld, but one of the wrong length is a manager's fault,
// not the data's, and must not pass as a silently withheld update.
func TestEnginePanicsOnManagerLengthFault(t *testing.T) {
	train := testDataset(60, 6)
	mf := func(clientID, dim int) SyncManager {
		if clientID == 1 {
			dim--
		}
		return &recordingManager{dim: dim, contrib: 1, weight: 1}
	}
	rng := stats.SplitRNG(4, 0)
	parts := data.PartitionIID(rng, train.Len(), 2)
	cfg := baseConfig()
	cfg.Rounds = 1
	cfg.EvalEvery = 0
	e := New(cfg, mlpFactory, sgdFactory(0.1), mf, train, parts, nil)
	defer func() {
		err, _ := recover().(error)
		if !errors.Is(err, ErrLengthMismatch) {
			t.Fatalf("Run recovered %v, want a panic wrapping ErrLengthMismatch", err)
		}
	}()
	e.Run()
}

func TestStragglersRunFewerIterations(t *testing.T) {
	train := testDataset(60, 7)
	mgrs := make([]*recordingManager, 2)
	mf := func(clientID, dim int) SyncManager {
		m := &recordingManager{dim: dim, contrib: 1, weight: 1}
		mgrs[clientID] = m
		return m
	}
	rng := stats.SplitRNG(5, 0)
	parts := data.PartitionIID(rng, train.Len(), 2)
	cfg := baseConfig()
	cfg.Rounds = 2
	cfg.LocalIters = 8
	cfg.EvalEvery = 0
	cfg.WorkFractions = []float64{1, 0.25}
	e := New(cfg, mlpFactory, sgdFactory(0.1), mf, train, parts, nil)
	e.Run()

	if mgrs[0].iterations != 16 {
		t.Errorf("full client ran %d iterations, want 16", mgrs[0].iterations)
	}
	if mgrs[1].iterations != 4 {
		t.Errorf("straggler ran %d iterations, want 4 (25%% of 16)", mgrs[1].iterations)
	}
}

func TestDropStragglersExcludesFromAggregation(t *testing.T) {
	train := testDataset(60, 8)
	mgrs := make([]*recordingManager, 2)
	mf := func(clientID, dim int) SyncManager {
		m := &recordingManager{dim: dim, contrib: float64(10 * (clientID + 1)), weight: 1}
		mgrs[clientID] = m
		return m
	}
	rng := stats.SplitRNG(6, 0)
	parts := data.PartitionIID(rng, train.Len(), 2)
	cfg := baseConfig()
	cfg.Rounds = 1
	cfg.EvalEvery = 0
	cfg.WorkFractions = []float64{1, 0.5}
	cfg.DropStragglers = true
	e := New(cfg, mlpFactory, sgdFactory(0.1), mf, train, parts, nil)
	e.Run()

	for _, v := range mgrs[0].downloaded {
		if v != 10 {
			t.Fatalf("global = %v, want 10 (straggler dropped)", v)
		}
	}
}

func TestFedProxKeepsModelNearRoundStart(t *testing.T) {
	train := testDataset(120, 9)
	run := func(mu float64) float64 {
		rng := stats.SplitRNG(7, 0)
		parts := data.PartitionIID(rng, train.Len(), 2)
		cfg := baseConfig()
		cfg.Rounds = 1
		cfg.LocalIters = 20
		cfg.EvalEvery = 0
		cfg.Prox = mu
		var probes []*driftProbe
		mf := func(clientID, dim int) SyncManager {
			p := &driftProbe{inner: NewPassthroughManager(4)}
			probes = append(probes, p)
			return p
		}
		e := New(cfg, mlpFactory, sgdFactory(0.3), mf, train, parts, nil)
		e.Run()
		drift := 0.0
		for _, p := range probes {
			drift += p.drift // per-client sums: clients train concurrently
		}
		return drift
	}
	free := run(0)
	proximal := run(1) // proximal pull (μ·lr < 1 keeps the pull stable)
	if proximal >= free {
		t.Errorf("FedProx drift %v not smaller than FedAvg drift %v", proximal, free)
	}
}

// driftProbe measures how far the local model moved during the round.
type driftProbe struct {
	inner SyncManager
	start []float64
	drift float64
}

func (p *driftProbe) PostIterate(round int, x []float64) {
	if p.start == nil {
		p.start = append([]float64(nil), x...)
	}
	p.inner.PostIterate(round, x)
}

func (p *driftProbe) PrepareUpload(round int, x []float64) ([]float64, float64, int64) {
	d := 0.0
	for j := range x {
		d += (x[j] - p.start[j]) * (x[j] - p.start[j])
	}
	p.drift += math.Sqrt(d)
	return p.inner.PrepareUpload(round, x)
}

func (p *driftProbe) ApplyDownload(round int, x, global []float64) int64 {
	return p.inner.ApplyDownload(round, x, global)
}

func TestTrackParamsRecorded(t *testing.T) {
	train := testDataset(60, 10)
	rng := stats.SplitRNG(8, 0)
	parts := data.PartitionIID(rng, train.Len(), 2)
	cfg := baseConfig()
	cfg.Rounds = 3
	cfg.EvalEvery = 0
	cfg.TrackParams = []int{0, 5}
	e := New(cfg, mlpFactory, sgdFactory(0.1), passthroughFactory, train, parts, nil)
	res := e.Run()

	for _, rm := range res.Rounds {
		if len(rm.Tracked) != 2 {
			t.Fatalf("tracked %d clients, want 2", len(rm.Tracked))
		}
		for _, vals := range rm.Tracked {
			if len(vals) != 2 {
				t.Fatalf("tracked %d params, want 2", len(vals))
			}
		}
	}
}

func TestAPFIntegration(t *testing.T) {
	train, test := splitDataset(240, 80, 11)
	rng := stats.SplitRNG(9, 0)
	parts := data.PartitionIID(rng, train.Len(), 3)

	cfg := baseConfig()
	cfg.Rounds = 40

	apfManagers := make([]*core.Manager, 3)
	apfFactory := func(clientID, dim int) SyncManager {
		m := core.NewManager(core.Config{
			Dim:              dim,
			CheckEveryRounds: 2,
			Threshold:        0.2,
			EMAAlpha:         0.9,
			Seed:             99,
		})
		apfManagers[clientID] = m
		return m
	}

	apfRes := New(cfg, mlpFactory, sgdFactory(0.3), apfFactory, train, parts, test).Run()
	baseRes := New(cfg, mlpFactory, sgdFactory(0.3), passthroughFactory, train, parts, test).Run()

	// Masks must be identical across clients (the paper's consistency
	// property: M_is_frozen is a deterministic function of synchronized
	// state).
	w0 := apfManagers[0].MaskWords()
	for c := 1; c < 3; c++ {
		wc := apfManagers[c].MaskWords()
		for i := range w0 {
			if w0[i] != wc[i] {
				t.Fatalf("client %d freezing mask diverged from client 0", c)
			}
		}
	}

	// APF must save traffic...
	if apfRes.CumUpBytes >= baseRes.CumUpBytes {
		t.Errorf("APF up bytes %d not below baseline %d", apfRes.CumUpBytes, baseRes.CumUpBytes)
	}
	if apfRes.CumDownBytes >= baseRes.CumDownBytes {
		t.Errorf("APF down bytes %d not below baseline %d", apfRes.CumDownBytes, baseRes.CumDownBytes)
	}
	// ...freeze something...
	finalFrozen := apfRes.Rounds[len(apfRes.Rounds)-1].FrozenRatio
	if finalFrozen <= 0 {
		t.Error("APF froze nothing on a converged easy task")
	}
	// ...and stay accuracy-comparable (within 10 points on this task).
	if apfRes.BestAcc < baseRes.BestAcc-0.10 {
		t.Errorf("APF accuracy %v fell too far below baseline %v", apfRes.BestAcc, baseRes.BestAcc)
	}
}

func TestEvaluateModel(t *testing.T) {
	test := testDataset(50, 13)
	rng := stats.SplitRNG(10, 0)
	net := mlpFactory(rng)
	loss, acc := EvaluateModel(net, test, 16)
	if math.IsNaN(loss) || acc < 0 || acc > 1 {
		t.Errorf("EvaluateModel returned loss=%v acc=%v", loss, acc)
	}
	loss2, acc2 := EvaluateModel(net, test, 7) // odd batch size, same result
	if math.Abs(loss-loss2) > 1e-9 || math.Abs(acc-acc2) > 1e-9 {
		t.Error("EvaluateModel depends on batch size")
	}
	if l, a := EvaluateModel(net, nil, 16); !math.IsNaN(l) || !math.IsNaN(a) {
		t.Error("EvaluateModel on nil dataset should return NaN")
	}
}

func TestConfigValidation(t *testing.T) {
	train := testDataset(20, 14)
	rng := stats.SplitRNG(11, 0)
	parts := data.PartitionIID(rng, train.Len(), 2)
	tests := []struct {
		name string
		mod  func(c *Config)
	}{
		{"rounds", func(c *Config) { c.Rounds = 0 }},
		{"iters", func(c *Config) { c.LocalIters = 0 }},
		{"batch", func(c *Config) { c.BatchSize = 0 }},
		{"work fractions", func(c *Config) { c.WorkFractions = []float64{1} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := baseConfig()
			tt.mod(&cfg)
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			New(cfg, mlpFactory, sgdFactory(0.1), passthroughFactory, train, parts, nil)
		})
	}
}
