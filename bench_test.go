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
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"apf"
	"apf/internal/checkpoint"
	"apf/internal/core"
	"apf/internal/experiments"
	"apf/internal/fl"
	"apf/internal/nn"
	"apf/internal/perturb"
	"apf/internal/preset"
	"apf/internal/quantize"
	"apf/internal/telemetry"
	"apf/internal/tensor"
	"apf/internal/wire"
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
// telemetry registry through the manager's observer hook. The apf#
// variants are sparse-q16-durable's manager: dim 264,970, a stability
// check and a 0.9 APF# draw every round, after a local step over every
// scalar (drift, where no scalar turns stable) or over every other one
// (settle, where the still half turns stable and the check takes its
// stability-frozen branch); both report the warm manager's live heap per
// scalar (B/scalar). For working measurements only: the tracked timings
// of these paths are bench/'s core.*_ms and trace.overhead_frac rows.
func BenchmarkManagerRound(b *testing.B) {
	for _, v := range []struct {
		name  string
		drive func(*core.Manager, int, []float64)
	}{{"drift", driftRound}, {"settle", settleRound}} {
		b.Run("apf#/dim=264970/check=1/"+v.name, func(b *testing.B) {
			x := make([]float64, 264_970)
			var m *core.Manager
			var start int
			perScalar := bytesPerScalar(x, func() { m, start = newRandomManagerAt(x, v.drive) })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.drive(m, start+i, x)
			}
			b.ReportMetric(perScalar, "B/scalar")
		})
	}
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
			obs := telemetry.ManagerObserver(telemetry.New())
			m, x, start := newManagerAt(c.Dim, c.Frozen, obs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				steadyRound(m, start+i, x)
			}
		})
	}
}

// BenchmarkStabilityCheck times ApplyDownload on the check rounds of
// sparse-q16-durable's manager (APF# at 0.9, a check every round), at the
// benchmark's dim and at one whose state fits in L2, under the drift and
// settle fixtures of BenchmarkManagerRound; the rest of each round runs
// off the clock. ns/scalar divides by dim.
func BenchmarkStabilityCheck(b *testing.B) {
	for _, dim := range []int{16_384, 264_970} {
		for _, v := range []struct {
			name  string
			step  func([]float64)
			drive func(*core.Manager, int, []float64)
		}{{"drift", driftStep, driftRound}, {"settle", settleStep, settleRound}} {
			b.Run(fmt.Sprintf("dim=%d/%s", dim, v.name), func(b *testing.B) {
				x := make([]float64, dim)
				m, start := newRandomManagerAt(x, v.drive)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					v.step(x)
					global := exchange(m, start+i, x)
					b.StartTimer()
					m.ApplyDownload(start+i, x, global)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(dim), "ns/scalar")
			})
		}
	}
}

// BenchmarkAggregate measures the server-side weighted aggregation
// through the sharded worker-pool reduction every tier uses: 10 synthetic
// clients at 10k and 1M scalars, and one dense-256k round (4 clients'
// dense256k models, weight 1). Each iteration collects the round through
// Open and Add off the clock and times Reduce alone (Add's admission pass
// is BenchmarkAggregatorAdd). ns/scalar divides by dim × clients, as
// bench/'s fl.reduce_ns_per_scalar does.
func BenchmarkAggregate(b *testing.B) {
	for _, dim := range []int{10_000, 1_000_000} {
		contribs, weights := newAggregateInput(dim)
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) { benchReduce(b, contribs, weights) })
	}
	contribs, weights := dense256kUpdates(4)
	b.Run(fmt.Sprintf("dim=%d/clients=%d", len(contribs[0]), len(contribs)), func(b *testing.B) {
		benchReduce(b, contribs, weights)
	})
}

func benchReduce(b *testing.B, contribs [][]float64, weights []float64) {
	agg := fl.NewAggregator(0)
	defer agg.Close()
	dst := make([]float64, len(contribs[0]))
	collect := func() {
		agg.Open(0, len(contribs))
		for k, c := range contribs {
			if err := agg.Add(k, c, weights[k]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		collect()
		b.StartTimer()
		if _, ok := agg.Reduce(dst); !ok {
			b.Fatal("nothing aggregated")
		}
	}
	reportPerScalar(b, len(dst)*len(contribs))
}

// BenchmarkPartialFold measures the exact streaming fold of one dense-256k
// round (4 clients into one fl.Partial): the relay's per-update cost,
// bench/'s fl.fold_ns_per_scalar.
func BenchmarkPartialFold(b *testing.B) {
	contribs, weights := dense256kUpdates(4)
	var p fl.Partial
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset()
		for k, c := range contribs {
			if err := p.Fold(c, weights[k]); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportPerScalar(b, len(contribs[0])*len(contribs))
}

// BenchmarkPartialMerge measures the root's merge of one relay partial
// straight from its packed wire frame at the dense-256k shape (4 clients
// folded into the partial): the root's per-relay cost, bench/'s
// fl.partial_merge_ns_per_scalar.
func BenchmarkPartialMerge(b *testing.B) {
	contribs, weights := dense256kUpdates(4)
	var sum fl.Partial
	for k, c := range contribs {
		if err := sum.Fold(c, weights[k]); err != nil {
			b.Fatal(err)
		}
	}
	m, _, err := wire.Decode(wire.Encode(&wire.PartialUpdateMsg{Sum: sum}), 0)
	if err != nil {
		b.Fatal(err)
	}
	part := &m.(*wire.PartialUpdateMsg).Sum
	var root fl.Partial
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root.Reset()
		if err := root.Merge(part); err != nil {
			b.Fatal(err)
		}
	}
	reportPerScalar(b, part.Dim())
}

// BenchmarkWireDense measures the encode and decode of one dense-256k
// update frame into a reused buffer, bench/'s wire.*_ns_per_scalar.
func BenchmarkWireDense(b *testing.B) {
	contribs, weights := dense256kUpdates(1)
	msg := &wire.UpdateMsg{Round: 7, Weight: weights[0], Payload: contribs[0]}
	buf := wire.Encode(msg)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wire.Append(buf[:0], msg)
		if _, _, err := wire.Decode(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
	reportPerScalar(b, len(msg.Payload))
}

// BenchmarkCheckpointF64s measures the byte ↔ float kernel under every
// dense frame, WAL record and snapshot: one dense-256k vector written by
// checkpoint.Writer into a reused buffer and read back by
// checkpoint.Reader into a fresh one.
func BenchmarkCheckpointF64s(b *testing.B) {
	contribs, _ := dense256kUpdates(1)
	v := contribs[0]
	var w checkpoint.Writer
	w.F64s(v)
	b.SetBytes(int64(len(w.Bytes())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		w.F64s(v)
		if r := checkpoint.NewReader(w.Bytes()); len(r.F64s()) != len(v) || r.Done() != nil {
			b.Fatal("round trip lost the vector")
		}
	}
	reportPerScalar(b, len(v))
}

// BenchmarkFrameRead measures the streaming decode of one update frame off
// a reader into a reused vector: what a server connection reader does per
// update. The dense arm is a dense-256k update; the sparse-q16 arm is the
// same update compacted to about 10 % unfrozen, a binary16 column.
// ns/scalar counts the frame's own scalars.
func BenchmarkFrameRead(b *testing.B) {
	contribs, _ := dense256kUpdates(1)
	dst := make([]float64, len(contribs[0]))
	fr := wire.FrameReader{Alloc: func(n int) []float64 { return dst[:n] }}
	for _, c := range frameReadCases(contribs[0]) {
		if c.name == "sparse" {
			continue
		}
		b.Run(c.name, func(b *testing.B) {
			var rd bytes.Reader
			b.SetBytes(int64(len(c.frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(c.frame)
				if _, err := fr.Read(&rd, 0); err != nil {
					b.Fatal(err)
				}
			}
			reportPerScalar(b, len(c.want))
		})
	}
}

// BenchmarkAggregatorAdd measures fl.Aggregator.Add of one dense-256k
// update into a mean round: its guards, the finiteness pass above all,
// since the slot only stores the slice.
func BenchmarkAggregatorAdd(b *testing.B) {
	contribs, weights := dense256kUpdates(1)
	agg := fl.NewAggregator(1)
	defer agg.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Open(i, 1)
		if err := agg.Add(0, contribs[0], weights[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportPerScalar(b, len(contribs[0]))
}

// reportPerScalar adds the benchmark's time per scalar of work per op.
func reportPerScalar(b *testing.B, scalars int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(scalars), "ns/scalar")
}

// BenchmarkTrainStep measures one steady-state local training step
// (ZeroGrads + LossGrad + optimizer Step) of the two bench/ models on a
// fixed batch: the lenet preset (LeNet-5, Adam, batch 20) and dense256k
// (batch 1). Its 0 allocs/op and its trajectory are pinned in
// hotpath_test.go; its time in situ is bench/'s nn.train_ms.
func BenchmarkTrainStep(b *testing.B) {
	for _, c := range []struct {
		name string
		f    func() *trainFixture
	}{
		{"lenet", func() *trainFixture { return presetFixture(b, "lenet", 1) }},
		{"dense256k", func() *trainFixture { return dense256kFixture(1) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			f := c.f()
			f.next = fixed(f.next)
			f.step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.step()
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

// BenchmarkConvStep measures one forward and one backward pass of each of
// LeNet-5's convolutions at the lenet preset's shapes: conv1 (1→6, 5×5) on
// a batch of 20 16×16 images, conv2 (6→16, 5×5) on that batch's pooled
// 6×6 maps, where each sample has a 2×2 output. Backward computes the
// input gradient here; in situ, conv1 (the lowest layer) skips it.
func BenchmarkConvStep(b *testing.B) {
	p, err := preset.Load("lenet", 1)
	if err != nil {
		b.Fatal(err)
	}
	idx := make([]int, p.Batch)
	for i := range idx {
		idx[i] = i
	}
	x1, _ := p.Data.Gather(idx)
	rng := rand.New(rand.NewSource(4))
	conv1 := nn.NewConv2D(rng, "conv1", x1.Shape[1], 6, 5, 1, 0)
	x2 := nn.NewMaxPool2D(2, 2).Forward(nn.NewReLU().Forward(conv1.Forward(x1, true), true), true).Clone()
	conv2 := nn.NewConv2D(rng, "conv2", 6, 16, 5, 1, 0)
	for _, c := range []struct {
		name string
		conv *nn.Conv2D
		x    *tensor.Tensor
	}{{"conv1", conv1, x1}, {"conv2", conv2, x2}} {
		b.Run(c.name, func(b *testing.B) {
			dy := tensor.Randn(rng, 0, 1, c.conv.Forward(c.x, true).Shape...)
			c.conv.Backward(dy)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.conv.Forward(c.x, true)
				c.conv.Backward(dy)
			}
		})
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

// BenchmarkEngineRound measures one round of the in-process simulator
// (fl.Engine) at converge's shape: the lenet preset, 4 clients with an APF
// manager, 8 local iterations of batch 20. One op is one round of a single
// long run, so the replicas are built once, outside the timer; the time is
// dominated by the simulator's local step.
func BenchmarkEngineRound(b *testing.B) {
	const seed = 6
	p, err := preset.Load("lenet", seed)
	if err != nil {
		b.Fatal(err)
	}
	parts := make([][]int, 4)
	for i := 0; i < p.Data.Len(); i++ {
		parts[i%4] = append(parts[i%4], i)
	}
	mf := func(_, dim int) fl.SyncManager {
		c := preset.APFConfig(seed)
		c.Dim = dim
		return core.NewManager(c)
	}
	cfg := fl.Config{Rounds: b.N, LocalIters: 8, BatchSize: p.Batch, Seed: seed}
	e := fl.New(cfg, p.Model, p.Optimizer, mf, p.Data, parts, nil)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
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
