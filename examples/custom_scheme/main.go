// Writing your own synchronization scheme, and benchmarking it against the
// built-in ones.
//
// This example implements a naive custom SyncManager — "lazy sync", which
// simply skips synchronization entirely on every other round — and races
// it against vanilla FedAvg, APF, Top-K sparsification, and APF stacked
// with stochastic 8-bit quantization, all on a group-norm ResNet (the
// FL-friendly normalization) over non-IID data.
//
// Run with:
//
//	go run ./examples/custom_scheme
package main

import (
	"fmt"
	"math/rand"
	"os"

	"apf"
	"apf/internal/stats"
)

// lazySync is the custom scheme: on even rounds it behaves like vanilla
// full-model synchronization; on odd rounds it uploads nothing (weight 0)
// and ignores the broadcast, halving traffic at the cost of staleness.
// It only needs the three SyncManager methods — state, freezing, and
// byte accounting are entirely up to the implementation.
type lazySync struct {
	bytesPerValue int64
}

// PostIterate does nothing: local training is unrestricted.
func (m *lazySync) PostIterate(int, []float64) {}

// PrepareUpload pushes the full model on even rounds only. The
// contribution may be x itself: callers only read it.
func (m *lazySync) PrepareUpload(round int, x []float64) ([]float64, float64, int64) {
	if round%2 == 1 {
		return x, 0, 0
	}
	return x, 1, int64(len(x)) * m.bytesPerValue
}

// ApplyDownload pulls the aggregate on even rounds only.
func (m *lazySync) ApplyDownload(round int, x, global []float64) int64 {
	if round%2 == 1 {
		return 0
	}
	copy(x, global)
	return int64(len(x)) * m.bytesPerValue
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "custom_scheme:", err)
		os.Exit(1)
	}
}

// run races the schemes.
func run() error {
	const (
		seed    = 17
		clients = 4
		rounds  = 60
	)
	pool := apf.SynthImages(apf.ImageConfig{
		Classes: 6, Channels: 1, Size: 10, Samples: 360, NoiseStd: 0.8, Seed: seed,
	})
	trainIdx := make([]int, 300)
	for i := range trainIdx {
		trainIdx[i] = i
	}
	testIdx := make([]int, 60)
	for i := range testIdx {
		testIdx[i] = 300 + i
	}
	train, test := pool.Subset(trainIdx), pool.Subset(testIdx)
	parts := apf.PartitionDirichlet(stats.SplitRNG(seed, 1), train.Labels, train.Classes, clients, 1.0)

	// A residual network with group norm: per-sample statistics, so the
	// non-IID client batches cannot skew normalization.
	model := func(rng *rand.Rand) *apf.Network {
		return apf.ResNet(rng, apf.ResNetConfig{
			StageWidths:    []int{8, 16},
			BlocksPerStage: 1,
			Norm:           apf.GroupNormFactory(4),
		}, 1, 6)
	}
	optimizer := func(p []*apf.Param) apf.Optimizer { return apf.NewSGD(p, 0.05, 0.9, 0) }
	cfg := apf.EngineConfig{Rounds: rounds, LocalIters: 3, BatchSize: 15, Seed: seed, EvalEvery: 10}

	apfCfg := apf.ManagerConfig{CheckEveryRounds: 1, Threshold: 0.3, EMAAlpha: 0.9, Seed: seed}
	schemes := []struct {
		name string
		mf   apf.ManagerFactory
	}{
		{"vanilla FedAvg", func(_, _ int) apf.SyncManager { return apf.NewPassthroughManager(4) }},
		{"lazy sync (custom)", func(_, _ int) apf.SyncManager { return &lazySync{bytesPerValue: 4} }},
		{"top-10% sparsification", func(_, dim int) apf.SyncManager { return apf.NewTopK(dim, 0.10, 4) }},
		{"APF", apf.ManagerFactoryFor(apfCfg)},
		{"APF + 8-bit stochastic quantization", func(clientID, dim int) apf.SyncManager {
			inner := apf.ManagerFactoryFor(apfCfg)(clientID, dim)
			return apf.NewStochasticQuantized(inner, 127 /* 255 grid points → 8 bits */, int64(clientID), seed)
		}},
	}

	fmt.Printf("%-36s %-10s %-12s %s\n", "scheme", "best acc", "traffic", "saved")
	var baseline int64
	for _, s := range schemes {
		res := apf.NewEngine(cfg, model, optimizer, s.mf, train, parts, test).Run()
		total := res.CumUpBytes + res.CumDownBytes
		if baseline == 0 {
			baseline = total
		}
		fmt.Printf("%-36s %-10.3f %-12s %.1f%%\n",
			s.name, res.BestAcc, formatMB(total), 100*(1-float64(total)/float64(baseline)))
	}
	fmt.Println("\nany type with PostIterate / PrepareUpload / ApplyDownload is a scheme —")
	fmt.Println("see the lazySync implementation above (25 lines).")
	return nil
}

// formatMB renders bytes as megabytes.
func formatMB(n int64) string { return fmt.Sprintf("%.2f MB", float64(n)/(1<<20)) }
