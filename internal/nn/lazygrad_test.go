package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"apf/internal/nn"
	"apf/internal/opt"
	"apf/internal/tensor"
)

// TestZeroMarkMatchesEagerZeroing holds ZeroGrads' zero mark to what it
// stands for. A network zeroed by marks and an eager twin, whose gradients
// are cleared element by element through Gradient and so never carry a
// mark, replay the same random sequence of ZeroGrads, LossGrad (a second
// one without zeroing accumulates), Eval, FlattenGrads and optimizer steps.
// Every loss, gradient and parameter must match bit for bit: a layer that
// accumulates onto a marked gradient without writing its zeros, or a
// reader that sees a stale one, fails here. The eager twin's Dense also
// adds its weight product to real zeros where the marked side writes it
// over the mark.
func TestZeroMarkMatchesEagerZeroing(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(rng *rand.Rand) *nn.Network
		optim func(params []*nn.Param) opt.Optimizer
		shape []int
	}{
		{"dense", func(rng *rand.Rand) *nn.Network {
			return nn.NewNetwork(nn.NewDense(rng, "fc1", 12, 8), nn.NewTanh(), nn.NewDense(rng, "fc2", 8, 3))
		}, func(p []*nn.Param) opt.Optimizer { return opt.NewSGD(p, 0.1, 0.9, 1e-4) }, []int{5, 12}},
		{"conv", func(rng *rand.Rand) *nn.Network {
			return nn.NewNetwork(nn.NewConv2D(rng, "conv1", 1, 4, 3, 1, 1), nn.NewBatchNorm2D("bn", 4), nn.NewReLU(),
				nn.NewMaxPool2D(2, 2), nn.NewConv2D(rng, "conv2", 4, 4, 3, 1, 0), nn.NewGroupNorm2D("gn", 4, 2),
				nn.NewReLU(), nn.NewFlatten(), nn.NewDense(rng, "fc", 4, 3))
		}, func(p []*nn.Param) opt.Optimizer { return opt.NewAdam(p, 0.01, 1e-4) }, []int{5, 1, 6, 6}},
		{"lstm", func(rng *rand.Rand) *nn.Network {
			return nn.NewNetwork(nn.NewLSTM(rng, "lstm", 3, 5), nn.NewLastStep(), nn.NewDense(rng, "fc", 5, 3))
		}, func(p []*nn.Param) opt.Optimizer { return opt.NewSGD(p, 0.1, 0, 0) }, []int{5, 4, 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			lazy, eager := c.build(rand.New(rand.NewSource(61))), c.build(rand.New(rand.NewSource(61)))
			lazyOpt, eagerOpt := c.optim(lazy.Params()), c.optim(eager.Params())
			rng := rand.New(rand.NewSource(62))
			// A fixed prefix visits every pairing the mark must survive,
			// then a random tail.
			ops := []string{"zero", "loss", "loss", "grads", "step", "zero", "eval", "grads",
				"zero", "loss", "step", "zero", "eval", "loss", "loss", "step", "zero", "step", "grads"}
			kinds := []string{"zero", "loss", "eval", "grads", "step"}
			for len(ops) < 80 {
				ops = append(ops, kinds[rng.Intn(len(kinds))])
			}
			for i, op := range append(ops, "grads") {
				switch op {
				case "zero":
					nn.ZeroGrads(lazy.Params())
					for _, p := range eager.Params() {
						p.Gradient().Zero()
					}
				case "loss", "eval":
					x := tensor.Randn(rng, 0, 1, c.shape...)
					labels := make([]int, c.shape[0])
					for j := range labels {
						labels[j] = rng.Intn(3)
					}
					run := (*nn.Network).Eval
					if op == "loss" {
						run = (*nn.Network).LossGrad
					}
					got, _ := run(lazy, x, labels)
					want, _ := run(eager, x, labels)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("op %d (%s): loss %v, eager twin %v", i, op, got, want)
					}
				case "grads":
					if j := firstDiff(nn.FlattenGrads(lazy.Params(), nil), nn.FlattenGrads(eager.Params(), nil)); j >= 0 {
						t.Fatalf("op %d: gradient %d differs from the eager twin's", i, j)
					}
				case "step":
					lazyOpt.Step()
					eagerOpt.Step()
				}
				if j := firstDiff(nn.FlattenParams(lazy.Params(), nil), nn.FlattenParams(eager.Params(), nil)); j >= 0 {
					t.Fatalf("op %d (%s): parameter %d differs from the eager twin's", i, op, j)
				}
			}
		})
	}
}

// firstDiff returns the first index where a and b differ bit for bit, or
// -1.
func firstDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}
