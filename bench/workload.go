package main

import (
	"fmt"
	"math/rand"

	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/nn"
	"apf/internal/opt"
	"apf/internal/preset"
	"apf/internal/stats"
	"apf/internal/wire"
)

// spec is one workload's configuration. It is echoed into every report so
// that -rerun can repeat any workload from its own output.
type spec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Model is "lenet" (the preset LeNet-5, dim 15,626) or "dense256k"
	// (Flatten→Dense(1024,256)→Tanh→Dense(256,10), dim 264,970).
	Model   string `json:"model"`
	Clients int    `json:"clients"`
	// Warmup rounds end the set-up phase; Rounds more are measured. Both are
	// fixed per episode, so counts (bytes, frames, resumes) repeat exactly.
	Warmup     int `json:"warmup"`
	Rounds     int `json:"rounds"`
	LocalIters int `json:"localIters"`
	Batch      int `json:"batch"`
	// Manager is "passthrough", "apf" (core.Config defaults tuned to the
	// episode length, see apfConfig) or "apf-random" (a 0.9 Bernoulli mask
	// redrawn every round).
	Manager string `json:"manager"`
	Codec   string `json:"codec"`
	// Durable gives the coordinator a checkpoint directory (WAL + snapshot
	// rotation); Validate arms the inbound update validator.
	Durable  bool `json:"durable"`
	Validate bool `json:"validate"`
	// Relays > 0 runs a root over that many edge relays, Clients split
	// evenly; SeverEvery > 0 makes the last client of every relay cut its
	// own connection after each SeverEvery-th applied round.
	Relays     int `json:"relays"`
	SeverEvery int `json:"severEvery"`
	// HistoryRounds bounds every tier's replay history (README, gap b).
	HistoryRounds int `json:"historyRounds"`
	// TargetAcc > 0 scores the global model on a held-out split every
	// EvalEvery rounds and reports the time and bytes to reach it.
	TargetAcc float64 `json:"targetAcc"`
	EvalEvery int     `json:"evalEvery"`
}

func (s spec) total() int { return s.Warmup + s.Rounds }

// workloads are the benchmark's four closed-loop workloads: every client
// pushes round r+1 only after applying global r.
var workloads = []spec{
	{
		Name: "converge",
		Why: "the paper's experiment in miniature (LeNet-5, non-IID shards, APF, sparse codec): local training " +
			"dominates the round, so server and wire work must show no change here",
		Model: "lenet", Clients: 4, Warmup: 5, Rounds: 85, LocalIters: 8, Batch: 20,
		Manager: "apf", Codec: "sparse", HistoryRounds: 8, TargetAcc: 0.85, EvalEvery: 5,
	},
	{
		Name: "dense-256k",
		Why: "dim 264,970, passthrough manager, dense codec: decode, exact Q64.64 fold and encode-once fan-out " +
			"dominate; the fold/decode hot path must win here",
		Model: "dense256k", Clients: 4, Warmup: 5, Rounds: 100, LocalIters: 1, Batch: 1,
		Manager: "passthrough", Codec: "dense", HistoryRounds: 8,
	},
	{
		Name: "sparse-q16-durable",
		Why: "same model, a 0.9-frozen mask redrawn every round, binary16 sparse frames, WAL + snapshots + validator: " +
			"the only workload on the gather/scatter, fsync and validation paths",
		Model: "dense256k", Clients: 4, Warmup: 5, Rounds: 100, LocalIters: 1, Batch: 1,
		Manager: "apf-random", Codec: "sparse-q16", Durable: true, Validate: true, HistoryRounds: 8,
	},
	{
		Name: "relay-churn",
		Why: "root + 2 relays x 2 clients, one client per relay reconnecting every 5th round: the only workload " +
			"through partial export/merge, the upstream hop and the resume path",
		Model: "dense256k", Clients: 4, Warmup: 5, Rounds: 60, LocalIters: 1, Batch: 1,
		Manager: "passthrough", Codec: "dense", Relays: 2, SeverEvery: 5, HistoryRounds: 8,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}

// inputs is everything an episode feeds the program, derived from
// (spec, seed) alone.
type inputs struct {
	model     fl.ModelFactory
	optimizer fl.OptimizerFactory
	train     *data.Dataset
	test      *data.Dataset // nil unless the workload scores accuracy
	parts     [][]int
	init      []float64
	manager   fl.ManagerFactory
	codec     wire.Codec
}

func dense256k(rng *rand.Rand) *nn.Network {
	return nn.NewNetwork(
		nn.NewFlatten(),
		nn.NewDense(rng, "fc1", 1024, 256),
		nn.NewTanh(),
		nn.NewDense(rng, "fc2", 256, 10),
	)
}

// apfConfig is the APF manager configuration of a workload. "apf" keeps the
// paper's threshold and AIMD policy but checks every other round with a
// faster EMA, so that freezing starts inside a 125-round episode instead of
// after it; "apf-random" freezes a fresh 0.9 Bernoulli draw every round,
// which pins the frozen fraction and changes the mask each round.
func apfConfig(s spec, seed int64, dim int) core.Config {
	switch s.Manager {
	case "apf":
		return core.Config{Dim: dim, Seed: seed, CheckEveryRounds: 2, EMAAlpha: 0.9}
	case "apf-random":
		return core.Config{Dim: dim, Seed: seed, CheckEveryRounds: 1,
			Random: core.RandomFreeze{Mode: core.RandomFixed, Prob: 0.9}}
	}
	panic("bench: " + s.Manager + " is not an APF manager")
}

func buildInputs(s spec, seed int64) (*inputs, error) {
	in := &inputs{}
	var err error
	if in.codec, err = wire.ParseCodec(s.Codec); err != nil {
		return nil, err
	}
	switch s.Model {
	case "lenet":
		p, err := preset.Load("lenet", seed)
		if err != nil {
			return nil, err
		}
		in.model, in.optimizer = p.Model, p.Optimizer
		// Harder than the preset's own data (more noise), with a held-out
		// split drawn by shuffling: the generator emits classes in order.
		pool := data.SynthImages(data.ImageConfig{
			Classes: 10, Channels: 1, Size: 16, Samples: 1000, NoiseStd: 2.5, Seed: seed,
		})
		perm := stats.SplitRNG(seed, 7002).Perm(pool.Len())
		in.test, in.train = pool.Subset(perm[:200]), pool.Subset(perm[200:])
		in.parts = data.PartitionDirichlet(stats.SplitRNG(seed, 7001), in.train.Labels, in.train.Classes, s.Clients, 0.3)
		// Every shard holds at least one full batch, so the per-round
		// compute is the same for every seed.
		levelShards(in.parts, s.Batch)
	case "dense256k":
		in.model = dense256k
		in.optimizer = func(p []*nn.Param) opt.Optimizer { return opt.NewSGD(p, 0.05, 0, 0) }
		// One sample per client: the trajectory then depends on the shard
		// alone, not on the server-assigned client id that seeds the batch
		// shuffle, so a two-tier run can be compared bitwise to a flat one.
		in.train = data.SynthImages(data.ImageConfig{
			Classes: 10, Channels: 1, Size: 32, Samples: s.Clients, NoiseStd: 0.5, Seed: seed,
		})
		for i := 0; i < s.Clients; i++ {
			in.parts = append(in.parts, []int{i})
		}
	default:
		return nil, fmt.Errorf("bench: unknown model %q", s.Model)
	}
	// The canonical initial model of the fl simulator, so the oracle starts
	// from the same point.
	in.init = nn.FlattenParams(in.model(stats.SplitRNG(seed, 1_000_000)).Params(), nil)
	switch s.Manager {
	case "passthrough":
		in.manager = func(int, int) fl.SyncManager { return fl.NewPassthroughManager(8) }
	case "apf", "apf-random":
		in.manager = func(_, dim int) fl.SyncManager { return core.NewManager(apfConfig(s, seed, dim)) }
	default:
		return nil, fmt.Errorf("bench: unknown manager %q", s.Manager)
	}
	return in, nil
}

// levelShards moves indices from the largest shard to any shard below min.
func levelShards(parts [][]int, min int) {
	for {
		small, large := 0, 0
		for i := range parts {
			if len(parts[i]) < len(parts[small]) {
				small = i
			}
			if len(parts[i]) > len(parts[large]) {
				large = i
			}
		}
		if len(parts[small]) >= min || len(parts[large]) <= min {
			return
		}
		last := len(parts[large]) - 1
		parts[small] = append(parts[small], parts[large][last])
		parts[large] = parts[large][:last]
	}
}
