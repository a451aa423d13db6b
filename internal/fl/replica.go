package fl

import (
	"fmt"

	"apf/internal/data"
	"apf/internal/nn"
	"apf/internal/opt"
	"apf/internal/stats"
)

// Replica is one federated client's training state: a model whose
// parameters are views of the flat vector X, its optimizer, a batcher over
// the local shard, and the SyncManager the factory returned. The simulator
// (Engine) and the TCP client (package transport) each hold one, so the RNG
// streams and the call order that make a deployment train exactly as the
// simulator does live here and nowhere else.
type Replica struct {
	// X is the flat model the parameters view (nn.BindFlat): a step writes
	// X, and a download applied into X (Manager.ApplyDownload(round, X,
	// global)) is what the next step reads.
	X       []float64
	Manager SyncManager

	net     *nn.Network
	params  []*nn.Param
	optim   opt.Optimizer
	batcher *data.Batcher

	// prox and schedule are the simulator's Config.Prox and
	// Config.LRSchedule; a deployed client leaves them unset.
	prox       float64
	schedule   opt.Schedule
	roundStart []float64 // X at the round's start, for the proximal term
}

// InitVector returns the canonical initial model of a run seeded with seed:
// every replica of the run, simulated or deployed, starts from it.
func InitVector(model ModelFactory, seed int64) []float64 {
	return nn.FlattenParams(model(stats.SplitRNG(seed, 1_000_000)).Params(), nil)
}

// NewReplica builds client id's replica of a run seeded with seed: the model
// from stream 2_000_000+id with its parameters bound to X and set to init,
// the optimizer over them, a batcher of batch samples over the shard's
// indices from stream 3_000_000+id, and mf's manager. It fails, before the
// manager is built, when init does not fit the model.
func NewReplica(id int, seed int64, init []float64, model ModelFactory, optimizer OptimizerFactory,
	mf ManagerFactory, shard *data.Dataset, indices []int, batch int) (*Replica, error) {
	net := model(stats.SplitRNG(seed, int64(2_000_000+id)))
	params := net.Params()
	if n := nn.ParamCount(params); len(init) != n {
		return nil, fmt.Errorf("initial model has %d scalars, local model has %d", len(init), n)
	}
	x := make([]float64, len(init))
	nn.BindFlat(params, x)
	copy(x, init)
	optim := optimizer(params)
	batcher := data.NewBatcher(shard, indices, batch, stats.SplitRNG(seed, int64(3_000_000+id)))
	return &Replica{X: x, Manager: mf(id, len(x)), net: net, params: params, optim: optim, batcher: batcher}, nil
}

// Train runs round's local phase: iters iterations of ZeroGrads → LossGrad
// → (proximal term) → optimizer Step → Manager.PostIterate on X. first is
// the run-wide index of the round's first iteration, the LR schedule's
// clock.
func (r *Replica) Train(round, iters, first int) {
	if r.prox > 0 {
		r.roundStart = append(r.roundStart[:0], r.X...)
	}
	for i := 0; i < iters; i++ {
		if r.schedule != nil {
			r.optim.SetLR(r.schedule.LRAt(first + i))
		}
		xb, yb := r.batcher.Next()
		nn.ZeroGrads(r.params)
		r.net.LossGrad(xb, yb)
		if r.prox > 0 {
			r.addProximal()
		}
		r.optim.Step()
		r.Manager.PostIterate(round, r.X)
	}
}

// addProximal adds μ(x − x_round) to the gradients (FedProx, §7.7).
func (r *Replica) addProximal() {
	off := 0
	for _, p := range r.params {
		n := p.Data.Size()
		if p.Trainable {
			g := p.Gradient().Data
			for j := 0; j < n; j++ {
				g[j] += r.prox * (r.X[off+j] - r.roundStart[off+j])
			}
		}
		off += n
	}
}
