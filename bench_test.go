// Benchmarks regenerating every table and figure of the paper at Quick
// scale (one benchmark per artifact — BenchmarkFig11 regenerates Fig. 11,
// BenchmarkTable2 regenerates Table 2, ...), plus microbenchmarks of the
// APF manager hot path and the numeric substrate.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// One artifact benchmark iteration is one complete experiment, so expect
// seconds per iteration; cmd/apfbench prints the same artifacts with their
// numbers.
package apf_test

import (
	"fmt"
	"math/rand"
	"testing"

	"apf"
	"apf/internal/core"
	"apf/internal/experiments"
	"apf/internal/fl"
	"apf/internal/nn"
	"apf/internal/perturb"
	"apf/internal/quantize"
	"apf/internal/telemetry"
	"apf/internal/telemetry/hooks"
	"apf/internal/tensor"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := runner(experiments.Quick, 1)
		if err != nil {
			b.Fatal(err)
		}
		if out == nil || (len(out.Figures) == 0 && len(out.Tables) == 0) {
			b.Fatal("experiment produced no artifacts")
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)  { benchExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)  { benchExperiment(b, "fig21") }
func BenchmarkFig22(b *testing.B)  { benchExperiment(b, "fig22") }

// ---- Microbenchmarks: APF manager hot path ----

// benchManager builds a manager over dim scalars with some parameters
// frozen.
func benchManager(dim int) (*core.Manager, []float64) {
	m := core.NewManager(core.Config{
		Dim:              dim,
		CheckEveryRounds: 1,
		Threshold:        0.5,
		EMAAlpha:         0.9,
		Seed:             1,
	})
	x := make([]float64, dim)
	rng := rand.New(rand.NewSource(2))
	// Drive a few oscillating rounds so part of the model freezes.
	for round := 0; round < 10; round++ {
		for j := range x {
			if j%2 == 0 {
				x[j] += float64(1 - 2*(round%2))
			} else {
				x[j] += rng.NormFloat64()
			}
		}
		m.PostIterate(round, x)
		contrib, _, _ := m.PrepareUpload(round, x)
		m.ApplyDownload(round, x, contrib)
	}
	return m, x
}

// BenchmarkManagerPostIterate measures the per-iteration rollback cost
// (Table 4's computation overhead, per iteration).
func BenchmarkManagerPostIterate(b *testing.B) {
	m, x := benchManager(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PostIterate(10, x)
	}
}

// BenchmarkManagerRoundSync measures a full upload+download exchange
// including the stability check.
func BenchmarkManagerRoundSync(b *testing.B) {
	m, x := benchManager(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round := 10 + i
		m.PostIterate(round, x)
		contrib, _, _ := m.PrepareUpload(round, x)
		m.ApplyDownload(round, x, contrib)
	}
}

// BenchmarkEMATrackerObserve measures the effective-perturbation update.
func BenchmarkEMATrackerObserve(b *testing.B) {
	t := perturb.NewEMATracker(100_000, 0.99)
	delta := make([]float64, 100_000)
	for i := range delta {
		delta[i] = float64(i%7) - 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Observe(delta)
	}
}

// ---- Hot-path benchmarks (fixtures and 0-alloc pins in hotpath_test.go) ----

// BenchmarkManagerRound measures one full steady-state client round
// (rollback + upload + compact codec + download/check) over the
// Dim × frozen-ratio grid. The /telemetry variants attach a live
// telemetry registry through the manager's observer hook. For working
// measurements only: the tracked timings of these paths are bench/'s
// core.*_ms and trace.overhead_frac rows.
func BenchmarkManagerRound(b *testing.B) {
	for _, c := range roundCases() {
		b.Run(fmt.Sprintf("dim=%d/frozen=%.2f", c.Dim, c.Frozen), func(b *testing.B) {
			m, x, start := newManagerAt(c.Dim, c.Frozen, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				steadyRound(m, start+i, x)
			}
		})
		b.Run(fmt.Sprintf("dim=%d/frozen=%.2f/telemetry", c.Dim, c.Frozen), func(b *testing.B) {
			obs := hooks.Manager(telemetry.New())
			m, x, start := newManagerAt(c.Dim, c.Frozen, obs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				steadyRound(m, start+i, x)
			}
		})
	}
}

// BenchmarkAggregate measures the server-side weighted aggregation over
// 10 client contributions through the sharded worker-pool reduction the
// engine uses.
func BenchmarkAggregate(b *testing.B) {
	for _, dim := range []int{10_000, 1_000_000} {
		contribs, weights := newAggregateInput(dim)
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			agg := fl.NewAggregator(0)
			defer agg.Close()
			dst := make([]float64, dim)
			if !agg.WeightedMean(dst, contribs, weights) {
				b.Fatal("nothing aggregated")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agg.WeightedMean(dst, contribs, weights)
			}
		})
	}
}

// ---- Microbenchmarks: numeric substrate ----

// BenchmarkMatMul measures the 128×128 matrix product.
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.Randn(rng, 0, 1, 128, 128)
	y := tensor.Randn(rng, 0, 1, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

// BenchmarkConvForward measures a LeNet-sized convolution forward pass.
func BenchmarkConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	conv := nn.NewConv2D(rng, "conv", 6, 16, 5, 1, 0)
	x := tensor.Randn(rng, 0, 1, 20, 6, 12, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, true)
	}
}

// BenchmarkLSTMStep measures a full LSTM forward+backward pass.
func BenchmarkLSTMStep(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	lstm := nn.NewLSTM(rng, "lstm", 16, 64)
	x := tensor.Randn(rng, 0, 1, 20, 10, 16)
	grad := tensor.Randn(rng, 0, 1, 20, 10, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lstm.Forward(x, true)
		lstm.Backward(grad)
	}
}

// BenchmarkHalfRoundTrip measures fp16 quantization of a 100k-scalar
// payload (the APF+Q wire transform).
func BenchmarkHalfRoundTrip(b *testing.B) {
	xs := make([]float64, 100_000)
	for i := range xs {
		xs[i] = float64(i) * 1e-3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantize.RoundTripSlice(xs)
	}
}

// BenchmarkEngineRound measures one full federated round (3 clients, MLP)
// through the public facade.
func BenchmarkEngineRound(b *testing.B) {
	const seed = 6
	pool := apf.SynthImages(apf.ImageConfig{
		Classes: 4, Channels: 1, Size: 8, Samples: 240, NoiseStd: 0.6, Seed: seed,
	})
	parts := [][]int{{}, {}, {}}
	for i := 0; i < pool.Len(); i++ {
		parts[i%3] = append(parts[i%3], i)
	}
	model := func(rng *rand.Rand) *apf.Network {
		return apf.NewNetwork(
			apf.NewFlatten(),
			apf.NewDense(rng, "fc1", 64, 24),
			apf.NewTanh(),
			apf.NewDense(rng, "fc2", 24, 4),
		)
	}
	optimizer := func(p []*apf.Param) apf.Optimizer { return apf.NewSGD(p, 0.3, 0, 0) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := apf.EngineConfig{Rounds: 1, LocalIters: 4, BatchSize: 16, Seed: seed}
		e := apf.NewEngine(cfg, model, optimizer,
			apf.ManagerFactoryFor(apf.ManagerConfig{CheckEveryRounds: 2, Seed: seed}),
			pool, parts, nil)
		e.Run()
	}
}

// BenchmarkDenseForwardBackward measures a 256→128 dense layer pass.
func BenchmarkDenseForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	layer := nn.NewDense(rng, "fc", 256, 128)
	x := tensor.Randn(rng, 0, 1, 32, 256)
	grad := tensor.Randn(rng, 0, 1, 32, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer.Forward(x, true)
		nn.ZeroGrads(layer.Params())
		layer.Backward(grad)
	}
}

// BenchmarkBatchNormForward measures batch normalization over a typical
// activation block.
func BenchmarkBatchNormForward(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	layer := nn.NewBatchNorm2D("bn", 16)
	x := tensor.Randn(rng, 0, 1, 16, 16, 8, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer.Forward(x, true)
	}
}

// BenchmarkGroupNormForward measures group normalization over the same
// block for comparison with batch norm.
func BenchmarkGroupNormForward(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	layer := nn.NewGroupNorm2D("gn", 16, 4)
	x := tensor.Randn(rng, 0, 1, 16, 16, 8, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer.Forward(x, true)
	}
}

// BenchmarkResNetTrainStep measures one forward+backward of the CPU-scale
// residual network (the experiments' dominant cost).
func BenchmarkResNetTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	net := apf.ResNet(rng, apf.ResNet8Config(), 1, 10)
	x := tensor.Randn(rng, 0, 1, 10, 1, 10, 10)
	labels := make([]int, 10)
	for i := range labels {
		labels[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.ZeroGrads(net.Params())
		net.LossGrad(x, labels)
	}
}

// BenchmarkCompactCodec measures the APF wire codec over a 100k-scalar
// model with half the mask frozen.
func BenchmarkCompactCodec(b *testing.B) {
	m, x := benchManager(100_000)
	contrib, _, _ := m.PrepareUpload(10, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compact := m.CompactUpload(10, contrib)
		m.ExpandDownload(10, compact)
	}
}
