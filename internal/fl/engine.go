package fl

import (
	"fmt"
	"math"
	"math/rand"

	"apf/internal/data"
	"apf/internal/nn"
	"apf/internal/opt"
	"apf/internal/stats"
)

// Config parameterizes one federated training run.
type Config struct {
	// Rounds is the number of communication rounds.
	Rounds int
	// LocalIters is Fs, the local iterations per round (the paper's
	// synchronization frequency, §7.8 equates it with local epochs E).
	LocalIters int
	// BatchSize is the local mini-batch size (the paper uses 100).
	BatchSize int
	// Seed drives every RNG stream of the run deterministically.
	Seed int64
	// EvalEvery evaluates the global model on the test set every this
	// many rounds (and always on the final round). 0 disables evaluation.
	EvalEvery int
	// EvalBatch is the test-set forward batch size (default 256).
	EvalBatch int
	// Prox, when positive, adds the FedProx proximal term
	// μ/2·‖x − x_round‖² to every client objective (§7.7).
	Prox float64
	// WorkFractions optionally scales each client's local iterations to
	// simulate stragglers (e.g. 0.25 runs a quarter of LocalIters).
	// Empty means all clients do full work.
	WorkFractions []float64
	// DropStragglers reproduces FedAvg's straggler handling: clients
	// with WorkFraction < 1 are excluded from aggregation.
	DropStragglers bool
	// LRSchedule, when set, overrides the optimizer learning rate per
	// global iteration index.
	LRSchedule opt.Schedule
	// TrackParams lists flat-vector indices whose per-client local values
	// are recorded each round (used for the parameter-trajectory figures).
	TrackParams []int
	// OnRound, when set, is invoked after every completed round with its
	// metrics — progress reporting for long runs. It runs on the engine
	// goroutine; keep it fast.
	OnRound func(m RoundMetrics)
	// Participation, when in (0, 1), activates only that fraction of
	// clients (rounded up, at least one) in each round — the partial
	// participation of production FL (the paper's footnote 5: inactive
	// clients rejoin from the latest global model and mask). Inactive
	// clients skip local training and upload nothing; they still observe
	// the broadcast state so deterministic managers (APF) stay mask-
	// consistent. 0 or 1 means full participation.
	Participation float64
}

// withDefaults fills unset optional fields.
func (c Config) withDefaults() Config {
	if c.EvalBatch <= 0 {
		c.EvalBatch = 256
	}
	return c
}

// validate panics on nonsensical configurations (programmer error).
func (c Config) validate(clients int) {
	if c.Rounds <= 0 || c.LocalIters <= 0 || c.BatchSize <= 0 {
		panic(fmt.Sprintf("fl: invalid config rounds=%d localIters=%d batch=%d", c.Rounds, c.LocalIters, c.BatchSize))
	}
	if len(c.WorkFractions) != 0 && len(c.WorkFractions) != clients {
		panic(fmt.Sprintf("fl: %d work fractions for %d clients", len(c.WorkFractions), clients))
	}
	if c.Participation < 0 || c.Participation > 1 {
		panic(fmt.Sprintf("fl: participation %v out of [0,1]", c.Participation))
	}
}

// RoundMetrics records what happened in one communication round.
type RoundMetrics struct {
	Round    int
	TestAcc  float64 // NaN when the round was not evaluated
	TestLoss float64 // NaN when the round was not evaluated
	BestAcc  float64 // best-ever accuracy so far (the paper reports best-ever)
	// FrozenRatio is the mean frozen-parameter ratio across clients (0
	// for schemes that do not freeze).
	FrozenRatio float64
	// UpBytes/DownBytes are summed over all clients for this round.
	UpBytes   int64
	DownBytes int64
	// PerClientUpBytes/PerClientDownBytes feed the link-time model.
	PerClientUpBytes   []int64
	PerClientDownBytes []int64
	// Tracked[c][t] is client c's local value of Config.TrackParams[t]
	// at the end of the round's local phase (pre-aggregation).
	Tracked [][]float64
}

// Result aggregates a full run.
type Result struct {
	Rounds       []RoundMetrics
	BestAcc      float64
	FinalAcc     float64
	CumUpBytes   int64
	CumDownBytes int64
	Dim          int
	NumClients   int
}

// EvaluatedRounds returns only the rounds that carry test metrics.
func (r *Result) EvaluatedRounds() []RoundMetrics {
	out := make([]RoundMetrics, 0, len(r.Rounds))
	for _, m := range r.Rounds {
		if !math.IsNaN(m.TestAcc) {
			out = append(out, m)
		}
	}
	return out
}

// client is one simulated edge device: its replica plus the round's
// outputs, read by the server between barriers.
type client struct {
	*Replica
	id    int
	iters int  // local iterations per round (fewer for a straggler)
	drop  bool // a straggler excluded from aggregation

	contrib []float64
	weight  float64
	up      int64
	down    int64
	tracked []float64
}

// Engine runs federated training over an in-process cluster.
type Engine struct {
	cfg     Config
	clients []*client
	test    *data.Dataset
	evalNet *nn.Network
	global  []float64
	dim     int

	// Run-scoped worker pool driving both the client phases and the
	// sharded aggregation, plus reusable aggregation scratch.
	pool     *workerPool
	agg      *Aggregator
	aggBuf   []float64
	contribs [][]float64
	weights  []float64
}

// New assembles an engine. parts[i] lists the training-set indices owned by
// client i; managers are built per client via mf.
func New(cfg Config, model ModelFactory, optimizer OptimizerFactory, mf ManagerFactory, train *data.Dataset, parts [][]int, test *data.Dataset) *Engine {
	cfg = cfg.withDefaults()
	cfg.validate(len(parts))
	if len(parts) == 0 {
		panic("fl: need at least one client")
	}

	// One canonical initialization shared by every replica. The eval
	// network's parameters are overwritten before every evaluation.
	initVec := InitVector(model, cfg.Seed)
	dim := len(initVec)

	e := &Engine{cfg: cfg, test: test, dim: dim}
	e.global = append([]float64(nil), initVec...)
	e.evalNet = model(rand.New(rand.NewSource(cfg.Seed)))

	for i, indices := range parts {
		rep, err := NewReplica(i, cfg.Seed, initVec, model, optimizer, mf, train, indices, cfg.BatchSize)
		if err != nil {
			panic("fl: " + err.Error())
		}
		rep.prox, rep.schedule = cfg.Prox, cfg.LRSchedule
		c := &client{Replica: rep, id: i, iters: cfg.LocalIters}
		if len(cfg.WorkFractions) > 0 && cfg.WorkFractions[i] < 1 {
			c.iters = max(1, int(math.Round(cfg.WorkFractions[i]*float64(cfg.LocalIters))))
			c.drop = cfg.DropStragglers
		}
		e.clients = append(e.clients, c)
	}
	return e
}

// Dim returns the flat model length.
func (e *Engine) Dim() int { return e.dim }

// Global returns the current global model vector (shared storage; callers
// must not mutate it while Run is active).
func (e *Engine) Global() []float64 { return e.global }

// Run executes the configured number of rounds and returns the metrics.
func (e *Engine) Run() *Result {
	res := &Result{Dim: e.dim, NumClients: len(e.clients)}
	best := 0.0

	// One pool for the whole run: client phases and aggregation shards
	// reuse the same persistent workers instead of spawning goroutines
	// every round.
	e.pool = newWorkerPool(0)
	e.agg = newAggregatorOn(e.pool, false)
	if e.aggBuf == nil {
		e.aggBuf = make([]float64, e.dim)
	}
	defer func() {
		e.pool.Close()
		e.pool, e.agg = nil, nil
	}()

	for round := 0; round < e.cfg.Rounds; round++ {
		active := e.activeSet(round)
		e.parallel(func(c *client) { e.localPhase(c, round, active[c.id]) })

		// Server aggregation: weighted mean of the contributions, sharded
		// over the pool and double-buffered (aggBuf holds the previous
		// global after the swap, ready to be overwritten next round).
		e.contribs, e.weights = e.contribs[:0], e.weights[:0]
		for _, c := range e.clients {
			e.contribs = append(e.contribs, c.contrib)
			e.weights = append(e.weights, c.weight)
		}
		if e.agg.WeightedMean(e.aggBuf, e.contribs, e.weights) {
			e.global, e.aggBuf = e.aggBuf, e.global
		}

		e.parallel(func(c *client) {
			c.down = c.Manager.ApplyDownload(round, c.X, e.global)
			if !active[c.id] {
				// An inactive client's manager observes the broadcast for
				// state continuity, but no bytes cross its link this
				// round (it pulls the latest state when it rejoins).
				c.down = 0
			}
		})

		m := RoundMetrics{
			Round:              round,
			TestAcc:            math.NaN(),
			TestLoss:           math.NaN(),
			PerClientUpBytes:   make([]int64, len(e.clients)),
			PerClientDownBytes: make([]int64, len(e.clients)),
		}
		frozenSum := 0.0
		for i, c := range e.clients {
			m.UpBytes += c.up
			m.DownBytes += c.down
			m.PerClientUpBytes[i] = c.up
			m.PerClientDownBytes[i] = c.down
			if fr, ok := As[FrozenRatioReporter](c.Manager); ok {
				frozenSum += fr.FrozenRatio()
			}
			if len(e.cfg.TrackParams) > 0 {
				m.Tracked = append(m.Tracked, c.tracked)
			}
		}
		m.FrozenRatio = frozenSum / float64(len(e.clients))
		res.CumUpBytes += m.UpBytes
		res.CumDownBytes += m.DownBytes

		if e.cfg.EvalEvery > 0 && (round%e.cfg.EvalEvery == e.cfg.EvalEvery-1 || round == e.cfg.Rounds-1) {
			loss, acc := e.Evaluate()
			m.TestAcc = acc
			m.TestLoss = loss
			if acc > best {
				best = acc
			}
			res.FinalAcc = acc
		}
		m.BestAcc = best
		res.Rounds = append(res.Rounds, m)
		if e.cfg.OnRound != nil {
			e.cfg.OnRound(m)
		}
	}
	res.BestAcc = best
	return res
}

// activeSet selects the clients participating in the given round.
func (e *Engine) activeSet(round int) []bool {
	active := make([]bool, len(e.clients))
	p := e.cfg.Participation
	if p == 0 || p == 1 {
		for i := range active {
			active[i] = true
		}
		return active
	}
	k := int(math.Ceil(p * float64(len(e.clients))))
	if k < 1 {
		k = 1
	}
	rng := stats.SplitRNG(e.cfg.Seed, int64(5_000_000+round))
	for i, j := range rng.Perm(len(e.clients))[:k] {
		_ = i
		active[j] = true
	}
	return active
}

// parallel runs fn for every client across the run's worker pool and waits.
func (e *Engine) parallel(fn func(c *client)) {
	e.pool.Do(len(e.clients), func(i int) { fn(e.clients[i]) })
}

// localPhase runs one client's round before aggregation: its local
// iterations and upload when it is active, and the values of
// Config.TrackParams it ends the phase with either way.
func (e *Engine) localPhase(c *client, round int, active bool) {
	c.contrib, c.weight, c.up = nil, 0, 0
	if active {
		c.Train(round, c.iters, round*e.cfg.LocalIters)
	}
	if n := len(e.cfg.TrackParams); n > 0 {
		c.tracked = make([]float64, n)
		for t, j := range e.cfg.TrackParams {
			c.tracked[t] = c.X[j]
		}
	}
	if active {
		c.contrib, c.weight, c.up = c.Manager.PrepareUpload(round, c.X)
		if c.drop {
			c.weight = 0
		}
	}
}

// Evaluate scores the current global model on the test set.
func (e *Engine) Evaluate() (loss, acc float64) {
	nn.SetFlat(e.evalNet.Params(), e.global)
	return EvaluateModel(e.evalNet, e.test, e.cfg.EvalBatch)
}

// EvaluateModel computes mean loss and accuracy of net over ds in batches.
func EvaluateModel(net *nn.Network, ds *data.Dataset, batch int) (loss, acc float64) {
	if ds == nil || ds.Len() == 0 {
		return math.NaN(), math.NaN()
	}
	if batch <= 0 {
		batch = 256
	}
	n := ds.Len()
	totalLoss, totalCorrect := 0.0, 0.0
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		xb, yb := ds.Gather(idx)
		l, a := net.Eval(xb, yb)
		totalLoss += l * float64(len(idx))
		totalCorrect += a * float64(len(idx))
	}
	return totalLoss / float64(n), totalCorrect / float64(n)
}
