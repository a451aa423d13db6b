package nn

import (
	"fmt"
	"math"

	"apf/internal/tensor"
)

// GradCheckResult reports the worst relative gradient error found by
// GradCheck, for diagnostics.
type GradCheckResult struct {
	MaxRelErr float64
	Param     string
	Index     int
}

// GradCheck verifies a layer's analytic gradients against central finite
// differences through an arbitrary scalar loss. It perturbs every parameter
// scalar and every input scalar (unless the counts exceed maxChecks, in
// which case a deterministic stride subsamples them).
//
// The loss closure must run layer.Forward(x, true) and return a scalar
// whose gradient w.r.t. the layer output is produced by lossGrad. GradCheck
// is exported because downstream model authors can reuse it for custom
// layers; the test suite exercises every built-in layer with it.
func GradCheck(layer Layer, x *tensor.Tensor, scalarLoss func(y *tensor.Tensor) float64, lossGrad func(y *tensor.Tensor) *tensor.Tensor, eps, tol float64, maxChecks int) (GradCheckResult, error) {
	var res GradCheckResult

	// Analytic pass.
	ZeroGrads(layer.Params())
	y := layer.Forward(x, true)
	dx := layer.Backward(lossGrad(y))

	lossAt := func() float64 {
		out := layer.Forward(x, true)
		return scalarLoss(out)
	}

	check := func(name string, vals, grads []float64) error {
		stride := 1
		if maxChecks > 0 && len(vals) > maxChecks {
			stride = len(vals) / maxChecks
		}
		for i := 0; i < len(vals); i += stride {
			orig := vals[i]
			vals[i] = orig + eps
			lp := lossAt()
			vals[i] = orig - eps
			lm := lossAt()
			vals[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := grads[i]
			// Central differences carry ~|loss|·ulp/eps noise; treat
			// near-zero disagreements below that floor as exact.
			if math.Abs(numeric-analytic) < 1e-7 {
				continue
			}
			denom := math.Max(1e-8, math.Abs(numeric)+math.Abs(analytic))
			rel := math.Abs(numeric-analytic) / denom
			if rel > res.MaxRelErr {
				res.MaxRelErr = rel
				res.Param = name
				res.Index = i
			}
			if rel > tol {
				return fmt.Errorf("nn: gradient check failed for %s[%d]: analytic=%g numeric=%g rel=%g", name, i, analytic, numeric, rel)
			}
		}
		return nil
	}

	for _, p := range layer.Params() {
		if !p.Trainable {
			continue
		}
		// The analytic pass accumulated into p.Grad; snapshot before the
		// finite-difference passes disturb layer state.
		grads := append([]float64(nil), p.Gradient().Data...)
		if err := check(p.Name, p.Data.Data, grads); err != nil {
			return res, err
		}
	}
	dxCopy := append([]float64(nil), dx.Data...)
	if err := check("input", x.Data, dxCopy); err != nil {
		return res, err
	}
	return res, nil
}
