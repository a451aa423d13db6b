package scenario

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"apf/internal/chaos"
	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/nn"
	"apf/internal/opt"
	"apf/internal/scenario/adversary"
	"apf/internal/stats"
	"apf/internal/transport"
	"apf/internal/wire"
)

// RoundEval is one evaluated point of a trial's accuracy/loss curve.
type RoundEval struct {
	Round int     `json:"round"`
	Acc   float64 `json:"acc"`
	Loss  float64 `json:"loss"`
}

// ClientOutcome is one client's detection record, indexed by the
// server-assigned id (equal to the launch slot: transport.RunCluster
// starts the clients in slot order).
type ClientOutcome struct {
	Client    int  `json:"client"`
	Adversary bool `json:"adversary"`
	Strikes   int  `json:"strikes"`
	// Quarantined and QuarantineRound come from the coordinator's
	// validator; QuarantineRound is -1 while not quarantined.
	Quarantined     bool `json:"quarantined"`
	QuarantineRound int  `json:"quarantineRound"`
}

// TrialResult is the outcome of one seeded trial of a cell.
type TrialResult struct {
	Trial int   `json:"trial"`
	Seed  int64 `json:"seed"`

	// RoundsCommitted counts durably committed rounds; PartialRounds how
	// many of them aggregated fewer than the full cluster.
	RoundsCommitted int `json:"roundsCommitted"`
	PartialRounds   int `json:"partialRounds"`

	// Curve is the accuracy/loss trajectory of the global model, sampled
	// every EvalEvery rounds on an honest client.
	Curve     []RoundEval `json:"curve"`
	FinalAcc  float64     `json:"finalAcc"`
	FinalLoss float64     `json:"finalLoss"`

	// UpBytes/DownBytes are the managers' payload accounting summed over
	// clients; WireRead/WireWritten the measured TCP bytes (client side,
	// including re-sends after severs).
	UpBytes     int64 `json:"upBytes"`
	DownBytes   int64 `json:"downBytes"`
	WireRead    int64 `json:"wireRead"`
	WireWritten int64 `json:"wireWritten"`
	Reconnects  int   `json:"reconnects"`

	Clients []ClientOutcome `json:"clients"`

	// Confusion counts of the validator's quarantine decisions against
	// the trial's ground truth.
	TruePos  int `json:"truePos"`
	FalsePos int `json:"falsePos"`
	TrueNeg  int `json:"trueNeg"`
	FalseNeg int `json:"falseNeg"`
	// TimeToQuarantine is the mean number of attacked rounds a detected
	// adversary survived (quarantine round − onset + 1); -1 with no
	// quarantines.
	TimeToQuarantine float64 `json:"timeToQuarantine"`

	// OracleChecked records that the in-process simulator reproduced the
	// TCP run bit-exactly (only attempted where applicable).
	OracleChecked bool `json:"oracleChecked"`

	// ModelHash is the FNV-1a hash of client 0's final dense model bits:
	// a compact bit-exactness witness for determinism and kill-restart
	// equivalence checks.
	ModelHash uint64 `json:"modelHash"`
}

// hashModel fingerprints a dense model vector.
func hashModel(v []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// scenarioWorkload holds one trial's data and factories.
type scenarioWorkload struct {
	train, test *data.Dataset
	parts       [][]int
	model       fl.ModelFactory
	optimizer   fl.OptimizerFactory
	inner       fl.ManagerFactory // honest manager (oracle arm)
}

// tinyNet is the harness model: 6×6 grayscale → dense tanh → 3 classes,
// 495 parameters — big enough for APF's mask dynamics, small enough that
// a 60-cell matrix finishes in CI time.
func tinyNet(rng *rand.Rand) *nn.Network {
	return nn.NewNetwork(
		nn.NewFlatten(),
		nn.NewDense(rng, "fc1", 36, 12),
		nn.NewTanh(),
		nn.NewDense(rng, "fc2", 12, 3),
	)
}

// buildWorkload derives the trial's dataset, shards, and factories from
// the trial seed alone.
func buildWorkload(cfg Config, tseed int64) scenarioWorkload {
	pool := data.SynthImages(data.ImageConfig{
		Classes: 3, Channels: 1, Size: 6, Samples: 120, NoiseStd: 0.5, Seed: tseed,
	})
	// Head/tail split keeps the class mix balanced (labels cycle).
	n := pool.Len()
	trainIdx := make([]int, n-30)
	for i := range trainIdx {
		trainIdx[i] = i
	}
	testIdx := make([]int, 30)
	for i := range testIdx {
		testIdx[i] = n - 30 + i
	}
	train, test := pool.Subset(trainIdx), pool.Subset(testIdx)

	var parts [][]int
	if cfg.Alpha > 0 {
		rng := stats.SplitRNG(tseed, 7001)
		parts = data.PartitionDirichlet(rng, train.Labels, train.Classes, cfg.Clients, cfg.Alpha)
		rebalance(parts)
	} else {
		rng := stats.SplitRNG(tseed, 50)
		parts = data.PartitionIID(rng, train.Len(), cfg.Clients)
	}

	inner := func(clientID, dim int) fl.SyncManager {
		return core.NewManager(core.Config{
			Dim:              dim,
			CheckEveryRounds: 2,
			Threshold:        0.3,
			EMAAlpha:         0.85,
			Seed:             tseed,
		})
	}
	return scenarioWorkload{
		train: train, test: test, parts: parts,
		model:     tinyNet,
		optimizer: func(p []*nn.Param) opt.Optimizer { return opt.NewSGD(p, 0.3, 0, 0) },
		inner:     inner,
	}
}

// rebalance guarantees every Dirichlet shard at least one sample by
// moving indices from the largest shard — deterministically, so the
// repair is part of the trial's reproducible derivation.
func rebalance(parts [][]int) {
	for {
		smallest, largest := 0, 0
		for i := range parts {
			if len(parts[i]) < len(parts[smallest]) {
				smallest = i
			}
			if len(parts[i]) > len(parts[largest]) {
				largest = i
			}
		}
		if len(parts[smallest]) > 0 || len(parts[largest]) < 2 {
			return
		}
		last := len(parts[largest]) - 1
		parts[smallest] = append(parts[smallest], parts[largest][last])
		parts[largest] = parts[largest][:last]
	}
}

// buildFaults converts the cell's network spec into a deterministic
// chaos fault list. Severs start at round 1: round 0 carries session
// registration, whose ordering transport.RunCluster pins.
func buildFaults(cfg Config, tseed int64) ([]chaos.Fault, []int) {
	var faults []chaos.Fault
	severs := make([]int, cfg.Clients)
	if cfg.Network.DropRate > 0 {
		for r := 1; r < cfg.Rounds; r++ {
			for c := 0; c < cfg.Clients; c++ {
				if dropped(tseed, cfg.Clients, cfg.Network.DropRate, r, c) {
					faults = append(faults, chaos.Fault{Peer: clientName(c), Round: r, Kind: chaos.Sever})
					severs[c]++
				}
			}
		}
	}
	if cfg.Network.Kill {
		faults = append(faults, chaos.Fault{Round: cfg.Network.KillRound, Kind: chaos.KillServer})
	}
	return faults, severs
}

// dropped reports whether client is severed in round: each (round,
// client) cell draws independently and severs with probability rate, a
// pure function of the seed. The fallback slot, client round mod
// clients, stays connected when every other client drew a sever, so no
// round is left without a live client.
func dropped(seed int64, clients int, rate float64, round, client int) bool {
	severs := func(c int) bool { return stats.CellRNG(seed, round, c).Float64() < rate }
	if !severs(client) {
		return false
	}
	if client != round%clients {
		return true
	}
	for c := 0; c < clients; c++ {
		if c != client && !severs(c) {
			return true
		}
	}
	return false
}

// clientName is the stable chaos/session identity of a launch slot.
func clientName(i int) string { return fmt.Sprintf("c%d", i) }

// RunTrial executes one seeded trial of the cell over a real TCP
// cluster and scores it. The trial is a pure function of
// (cfg.Seed, trial).
func RunTrial(cfgIn Config, trial int) (*TrialResult, error) {
	cfg := cfgIn.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Network.Kill && cfg.Network.KillRound >= cfg.Rounds {
		return nil, fmt.Errorf("scenario %s: kill round %d outside %d rounds", cfg.Name, cfg.Network.KillRound, cfg.Rounds)
	}
	tseed := TrialSeed(cfg.Seed, trial)
	w := buildWorkload(cfg, tseed)

	advSet := make([]bool, cfg.Clients)
	for i := cfg.Clients - cfg.Adversary.Count; i < cfg.Clients; i++ {
		advSet[i] = true
	}

	faults, severs := buildFaults(cfg, tseed)

	init := fl.InitVector(tinyNet, tseed)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	scfg := transport.ServerConfig{
		NumClients:    cfg.Clients,
		Rounds:        cfg.Rounds,
		Init:          init,
		RoundDeadline: cfg.RoundDeadline,
		MinClients:    1,
		Codec:         cfg.Codec,
		TrimFraction:  cfg.TrimFraction,
		Validator: &transport.ValidatorConfig{
			MaxNormMult:   cfg.MaxNormMult,
			StrikeLimit:   cfg.StrikeLimit,
			CosineFloor:   cfg.CosineFloor,
			RoundNormMult: cfg.RoundNormMult,
		},
	}
	if cfg.CheckpointDir != "" {
		scfg.CheckpointDir = filepath.Join(cfg.CheckpointDir, fmt.Sprintf("trial%d", trial))
		scfg.SnapshotEvery = 1
	}

	// The cluster launches clients in slot order, so server-assigned ids
	// equal launch slots and every RNG stream keyed by client id is
	// deterministic.
	snapshots := make([][]float64, cfg.Rounds)
	cfgs := make([]transport.ClientConfig, cfg.Clients)
	for i := range cfgs {
		name := clientName(i)
		cfgs[i] = transport.ClientConfig{
			Name:       name,
			SessionKey: name,
			Model:      w.model,
			Optimizer:  w.optimizer,
			Manager:    managerFactory(w, cfg, tseed, i, advSet[i]),
			Data:       w.train,
			Indices:    w.parts[i],
			LocalIters: cfg.LocalIters,
			BatchSize:  cfg.BatchSize,
			Seed:       tseed,
			Codec:      cfg.Codec,
			// Every scheduled sever costs one reconnect; the margin covers
			// the kill-restart dial window and incidental timing.
			MaxRetries:     severs[i] + 24,
			RetryBaseDelay: 10 * time.Millisecond,
			RetryMaxDelay:  100 * time.Millisecond,
		}
	}
	cfgs[0].OnRound = func(round int, model []float64) {
		if round >= 0 && round < len(snapshots) {
			snapshots[round] = append([]float64(nil), model...)
		}
	}
	run, err := transport.RunCluster(ctx, transport.Cluster{
		Root:    scfg,
		Clients: cfgs,
		Chaos:   chaos.NewScript(tseed, faults...),
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", cfg.Name, err)
	}
	if cfg.Network.Kill && run.Restarts == 0 {
		return nil, fmt.Errorf("scenario %s: kill fault never fired", cfg.Name)
	}
	finalSrv, results := run.Root, run.Clients

	res := &TrialResult{
		Trial:           trial,
		Seed:            tseed,
		RoundsCommitted: finalSrv.CommittedRounds(),
		PartialRounds:   finalSrv.PartialRounds(),
		ModelHash:       hashModel(results[0].FinalModel),
	}

	// Detection outcomes, indexed by server-assigned id (== launch slot
	// when every client joined; the mapping below stays correct even if
	// they ever diverged).
	v := finalSrv.Validator()
	res.Clients = make([]ClientOutcome, cfg.Clients)
	for i, r := range results {
		sid := r.ClientID
		res.Clients[sid] = ClientOutcome{
			Client:          sid,
			Adversary:       advSet[i],
			Strikes:         v.Strikes(sid),
			Quarantined:     v.Quarantined(sid),
			QuarantineRound: v.QuarantineRound(sid),
		}
	}
	ttqSum, ttqN := 0.0, 0
	for _, o := range res.Clients {
		switch {
		case o.Adversary && o.Quarantined:
			res.TruePos++
			if o.QuarantineRound >= 0 {
				ttqSum += float64(o.QuarantineRound - cfg.Adversary.Onset + 1)
				ttqN++
			}
		case o.Adversary:
			res.FalseNeg++
		case o.Quarantined:
			res.FalsePos++
		default:
			res.TrueNeg++
		}
	}
	res.TimeToQuarantine = -1
	if ttqN > 0 {
		res.TimeToQuarantine = ttqSum / float64(ttqN)
	}

	for _, r := range results {
		res.UpBytes += r.UpBytes
		res.DownBytes += r.DownBytes
		res.WireRead += r.WireRead
		res.WireWritten += r.WireWritten
		res.Reconnects += r.Reconnects
	}

	// Accuracy/loss curve from the honest client-0 snapshots.
	evalNet := tinyNet(stats.SplitRNG(tseed, 555))
	for r := 0; r < cfg.Rounds; r++ {
		if snapshots[r] == nil {
			continue
		}
		if (r+1)%cfg.EvalEvery != 0 && r != cfg.Rounds-1 {
			continue
		}
		nn.SetFlat(evalNet.Params(), snapshots[r])
		loss, acc := fl.EvaluateModel(evalNet, w.test, 64)
		res.Curve = append(res.Curve, RoundEval{Round: r, Acc: acc, Loss: loss})
	}
	if len(res.Curve) > 0 {
		last := res.Curve[len(res.Curve)-1]
		res.FinalAcc, res.FinalLoss = last.Acc, last.Loss
	} else {
		res.FinalAcc, res.FinalLoss = -1, -1
	}

	if oracleApplies(cfg) {
		if err := runOracle(cfg, tseed, w, results[0].FinalModel); err != nil {
			return nil, fmt.Errorf("scenario %s trial %d: %w", cfg.Name, trial, err)
		}
		res.OracleChecked = true
	}
	return res, nil
}

// managerFactory builds the launch slot's manager: the honest APF
// manager, wrapped with the poisoner when the slot is adversarial.
func managerFactory(w scenarioWorkload, cfg Config, tseed int64, slot int, isAdv bool) fl.ManagerFactory {
	return func(clientID, dim int) fl.SyncManager {
		inner := w.inner(clientID, dim)
		if isAdv {
			return adversary.Wrap(inner, cfg.Adversary, tseed, slot)
		}
		return inner
	}
}

// oracleApplies reports whether the in-process simulator reproduces the
// cell bit-exactly: honest clients, a quiet network, a lossless codec
// (q16 sessions quantize commits, which the simulator does not model),
// and mean reduction (the simulator has no trimmed-mean arm).
func oracleApplies(cfg Config) bool {
	return cfg.Oracle &&
		!cfg.Adversary.Active() &&
		cfg.Network.DropRate == 0 && !cfg.Network.Kill &&
		cfg.Codec != wire.CodecSparseQ16 &&
		cfg.TrimFraction == 0
}

// runOracle replays the trial through the fl simulator and requires the
// TCP final model to match bit for bit: both arms train the same fl.Replica
// and fold with the same exact mean.
func runOracle(cfg Config, tseed int64, w scenarioWorkload, tcpFinal []float64) error {
	engine := fl.New(fl.Config{
		Rounds:     cfg.Rounds,
		LocalIters: cfg.LocalIters,
		BatchSize:  cfg.BatchSize,
		Seed:       tseed,
	}, w.model, w.optimizer, w.inner, w.train, w.parts, nil)
	engine.Run()
	sim := engine.Global()
	if len(sim) != len(tcpFinal) {
		return fmt.Errorf("oracle: simulator dim %d, tcp dim %d", len(sim), len(tcpFinal))
	}
	for i := range sim {
		if math.Float64bits(sim[i]) != math.Float64bits(tcpFinal[i]) {
			return fmt.Errorf("oracle: scalar %d diverged: sim %v, tcp %v", i, sim[i], tcpFinal[i])
		}
	}
	return nil
}
