package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestBindFlatTrainsLikeUnbound holds every parameterised layer to the rule
// BindFlat relies on — no layer keeps a view of Param.Data across passes:
// a network whose parameters view one flat vector trains bit-identically,
// in losses and parameters, to an unbound twin. Between steps both run the
// client's round trip — flatten, a download written into the flat vector,
// set back — which moves nothing on the bound side.
func TestBindFlatTrainsLikeUnbound(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(rng *rand.Rand) *Network
		shape []int
	}{
		{"dense", func(rng *rand.Rand) *Network {
			return NewNetwork(NewFlatten(), NewDense(rng, "fc1", 12, 6), NewTanh(), NewDense(rng, "fc2", 6, 3))
		}, []int{4, 12}},
		{"conv2d", func(rng *rand.Rand) *Network {
			return NewNetwork(NewConv2D(rng, "conv1", 2, 3, 3, 1, 1), NewReLU(), NewConv2D(rng, "conv2", 3, 2, 3, 2, 0),
				NewFlatten(), NewDense(rng, "fc", 2*2*2, 3))
		}, []int{4, 2, 6, 6}},
		{"batchnorm", func(rng *rand.Rand) *Network {
			return NewNetwork(NewConv2D(rng, "conv", 1, 4, 3, 1, 1), NewBatchNorm2D("bn", 4), NewReLU(),
				NewGlobalAvgPool2D(), NewDense(rng, "fc", 4, 3))
		}, []int{4, 1, 5, 5}},
		{"groupnorm", func(rng *rand.Rand) *Network {
			return NewNetwork(NewConv2D(rng, "conv", 1, 4, 3, 1, 1), NewGroupNorm2D("gn", 4, 2), NewReLU(),
				NewGlobalAvgPool2D(), NewDense(rng, "fc", 4, 3))
		}, []int{4, 1, 5, 5}},
		{"lstm", func(rng *rand.Rand) *Network {
			return NewNetwork(NewLSTM(rng, "lstm1", 3, 5), NewLSTM(rng, "lstm2", 5, 4), NewLastStep(), NewDense(rng, "fc", 4, 3))
		}, []int{4, 6, 3}},
		{"residual", func(rng *rand.Rand) *Network {
			return NewNetwork(NewConv2D(rng, "stem", 1, 4, 3, 1, 1), NewBasicBlock(rng, "b1", 4, 6, 2),
				NewBasicBlockNorm(rng, "b2", 6, 6, 1, GroupNormFactory(3)), NewGlobalAvgPool2D(), NewDense(rng, "fc", 6, 3))
		}, []int{4, 1, 6, 6}},
	} {
		t.Run(c.name, func(t *testing.T) {
			bound, twin := c.build(rand.New(rand.NewSource(51))), c.build(rand.New(rand.NewSource(51)))
			x := make([]float64, ParamCount(bound.Params()))
			BindFlat(bound.Params(), x)
			y := FlattenParams(twin.Params(), nil)
			if j := sameBits(x, y); j >= 0 {
				t.Fatalf("BindFlat copied parameter %d as %v, want %v", j, x[j], y[j])
			}
			rng := rand.New(rand.NewSource(52))
			for step := 0; step < 6; step++ {
				op := randomOp(rng, true, 3, c.shape...)
				gotLoss, _ := op.run(bound)
				wantLoss, _ := op.run(twin)
				if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
					t.Fatalf("step %d: bound network loss %v, unbound %v", step, gotLoss, wantLoss)
				}
				for _, net := range []*Network{bound, twin} {
					for _, p := range net.Params() {
						if p.Trainable {
							p.Data.Axpy(-0.1, p.Grad)
						}
					}
				}
				x = FlattenParams(bound.Params(), x)
				y = FlattenParams(twin.Params(), y)
				for j := step; j < len(x); j += 7 { // the download
					x[j] *= 0.5
					y[j] *= 0.5
				}
				SetFlat(bound.Params(), x)
				SetFlat(twin.Params(), y)
				if j := sameBits(FlattenParams(bound.Params(), nil), y); j >= 0 {
					t.Fatalf("step %d: bound parameter %d differs from the unbound twin's", step, j)
				}
			}
		})
	}
}
