package transport

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"apf/internal/chaos"
	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/nn"
	"apf/internal/stats"
	"apf/internal/telemetry"
	"apf/internal/wire"
)

// TestTCPMatchesSimulatorBitExact is the transport's strongest correctness
// check: the same federated configuration run through the in-process
// simulator (package fl) and through a real TCP cluster must produce the
// bit-identical global model — every RNG stream, aggregation order, and
// APF decision lines up.
//
// It runs twice: over tinyModel (dense layers only) and over a model with a
// convolution, whose kernel the client reads through its flat model
// (nn.BindFlat) — a layer that kept a view of its kernel from construction
// would train on a stale copy and leave the simulator here.
func TestTCPMatchesSimulatorBitExact(t *testing.T) {
	for name, model := range map[string]fl.ModelFactory{"dense": tinyModel, "conv": tinyConvModel} {
		t.Run(name, func(t *testing.T) { tcpMatchesSimulator(t, model) })
	}
}

// tinyConvModel is tinyModel with a convolution in front of its head.
func tinyConvModel(rng *rand.Rand) *nn.Network {
	return nn.NewNetwork(
		nn.NewConv2D(rng, "conv", 1, 2, 3, 1, 0),
		nn.NewReLU(),
		nn.NewFlatten(),
		nn.NewDense(rng, "fc", 2*4*4, 3),
	)
}

// simFixture is the shared configuration of the simulator-equivalence
// tests, dense and sparse: one synthetic task, its shards, the model's
// canonical init and the APF hyperparameters, so any divergence between
// two arms is attributable to the transport or the codec.
type simFixture struct {
	model   fl.ModelFactory
	ds      *data.Dataset
	parts   [][]int
	init    []float64
	factory fl.ManagerFactory
}

const (
	simSeed    = 61
	simClients = 3
	simRounds  = 12
	simIters   = 3
	simBatch   = 10
)

func newSimFixture(model fl.ModelFactory) *simFixture {
	ds := data.SynthImages(data.ImageConfig{
		Classes: 3, Channels: 1, Size: 6, Samples: 90, NoiseStd: 0.5, Seed: simSeed,
	})
	factory := func(clientID, dim int) fl.SyncManager {
		return core.NewManager(core.Config{
			Dim:              dim,
			CheckEveryRounds: 2,
			Threshold:        0.3,
			EMAAlpha:         0.85,
			Seed:             simSeed,
		})
	}
	return &simFixture{
		model:   model,
		ds:      ds,
		parts:   data.PartitionIID(stats.SplitRNG(simSeed, 50), ds.Len(), simClients),
		init:    fl.InitVector(model, simSeed),
		factory: factory,
	}
}

// simGlobal runs the in-process simulator over the fixture and returns its
// dense global — the bit-exactness oracle for every lossless codec.
func (f *simFixture) simGlobal() []float64 {
	engine := fl.New(fl.Config{
		Rounds:     simRounds,
		LocalIters: simIters,
		BatchSize:  simBatch,
		Seed:       simSeed,
	}, f.model, tinySGD, f.factory, f.ds, f.parts, nil)
	engine.Run()
	return engine.Global()
}

// clients returns one config per shard: client i is named and
// session-keyed "eq-i" and speaks codec.
func (f *simFixture) clients(codec wire.Codec) []ClientConfig {
	cfgs := make([]ClientConfig, simClients)
	for i := range cfgs {
		name := fmt.Sprintf("eq-%d", i)
		cfgs[i] = ClientConfig{
			Name:       name,
			SessionKey: name,
			Model:      f.model,
			Optimizer:  tinySGD,
			Manager:    f.factory,
			Data:       f.ds,
			Indices:    f.parts[i],
			LocalIters: simIters,
			BatchSize:  simBatch,
			Seed:       simSeed,
			Codec:      codec,
		}
	}
	return cfgs
}

// faultyCluster is the fixture's cluster on codec under script, each
// client with a reconnect budget of retries and backoff capped at
// maxDelay; srvCfg customizes the server beyond the fixture defaults.
func (f *simFixture) faultyCluster(srvCfg ServerConfig, script *chaos.Script, retries int, maxDelay time.Duration) Cluster {
	srvCfg.NumClients, srvCfg.Rounds, srvCfg.Init = simClients, simRounds, f.init
	cfgs := f.clients(srvCfg.Codec)
	for i := range cfgs {
		cfgs[i].MaxRetries, cfgs[i].RetryBaseDelay, cfgs[i].RetryMaxDelay = retries, 10*time.Millisecond, maxDelay
	}
	return Cluster{Root: srvCfg, Clients: cfgs, Chaos: script}
}

// runCluster runs one TCP cluster over the fixture, every client on the
// server's codec; srvCfg customizes the server beyond the fixture
// defaults. Returns the per-client results and the finished server (its
// metrics registry stays readable).
func (f *simFixture) runCluster(t *testing.T, srvCfg ServerConfig) ([]*ClientResult, *Server) {
	t.Helper()
	srvCfg.Metrics = telemetry.New() // the tests read the wire frame counters
	res := runSpec(t, f.faultyCluster(srvCfg, nil, 0, 0))
	return res.Clients, res.Root
}

// runUnderChaos runs the fixture's cluster on codec with a generous round
// deadline while two clients are severed mid-run (one of them twice, once
// by a torn update).
func (f *simFixture) runUnderChaos(t *testing.T, codec wire.Codec) ([]*ClientResult, *Server) {
	t.Helper()
	script := chaos.NewScript(29,
		chaos.Fault{Peer: "eq-0", Round: 2, Kind: chaos.Sever},
		chaos.Fault{Peer: "eq-1", Round: 5, Kind: chaos.PartialWrite},
		chaos.Fault{Peer: "eq-1", Round: 9, Kind: chaos.Sever},
	)
	res := runSpec(t, f.faultyCluster(ServerConfig{RoundDeadline: 5 * time.Second, Codec: codec}, script, 8, 100*time.Millisecond))
	return res.Clients, res.Root
}

// runKillRestart runs the fixture's cluster on codec against a durable
// server that a scripted fault crashes when round 7 is announced (rounds
// 0..6 committed; round 7's partials die with it), on top of a client
// sever at round 3, so session resume and checkpoint recovery compose.
// The cluster rebinds a fresh server on the same address, which recovers
// from the checkpoint directory, and the clients ride through on their
// reconnect budget.
func (f *simFixture) runKillRestart(t *testing.T, codec wire.Codec) []*ClientResult {
	t.Helper()
	script := chaos.NewScript(29,
		chaos.Fault{Peer: "eq-1", Round: 3, Kind: chaos.Sever},
		chaos.Fault{Round: 7, Kind: chaos.KillServer},
	)
	res := runSpec(t, f.faultyCluster(ServerConfig{
		RoundDeadline: 5 * time.Second,
		CheckpointDir: t.TempDir(),
		SnapshotEvery: 3,
		Codec:         codec,
	}, script, 60, 250*time.Millisecond))
	if res.Restarts != 1 {
		t.Fatalf("server restarted %d times, want 1: the kill fault never fired", res.Restarts)
	}
	if got := res.Root.StartRound(); got != 7 {
		t.Fatalf("recovered server resumes at round %d, want 7 (rounds 0..6 committed)", got)
	}
	return res.Clients
}

func tcpMatchesSimulator(t *testing.T, model fl.ModelFactory) {
	// Arm 1: the in-process simulator.
	f := newSimFixture(model)
	simGlobal := f.simGlobal()

	// Arm 2: a real TCP cluster with the identical configuration. The
	// server starts from the same canonical init the engine derives.
	var tcpManagers []fl.SyncManager
	apf := f.factory
	f.factory = func(clientID, dim int) fl.SyncManager {
		m := apf(clientID, dim)
		tcpManagers = append(tcpManagers, m)
		return m
	}
	results, _ := f.runCluster(t, ServerConfig{})

	if len(tcpManagers) != simClients {
		t.Fatalf("captured %d managers", len(tcpManagers))
	}
	requireMatchesSimulator(t, results, simGlobal)
}

// requireMatchesSimulator checks every TCP client against the simulator's
// dense global. Positions frozen at some point differ by bookkeeping noise
// only: clients pin them to the exact reference value, while the
// simulator's *dense* global carries Σ(wᵢ·ref) floating-point noise there —
// noise that, by design, nothing ever reads (ApplyDownload restores the
// reference). So every position must agree within an ulp-scale tolerance,
// and the vast majority must agree bit for bit.
func requireMatchesSimulator(t *testing.T, results []*ClientResult, simGlobal []float64) {
	t.Helper()
	exact := 0
	for j := range simGlobal {
		got := results[0].FinalModel[j]
		want := simGlobal[j]
		if got == want {
			exact++
			continue
		}
		if diff := math.Abs(got - want); diff > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("TCP model diverged from simulator at scalar %d: %v vs %v", j, got, want)
		}
	}
	if float64(exact) < 0.9*float64(len(simGlobal)) {
		t.Fatalf("only %d/%d scalars bit-exact — more than bookkeeping noise differs", exact, len(simGlobal))
	}
	// And every TCP client ends with the identical model.
	for c := 1; c < len(results); c++ {
		for j := range results[0].FinalModel {
			if results[c].FinalModel[j] != results[0].FinalModel[j] {
				t.Fatalf("TCP clients diverged at scalar %d", j)
			}
		}
	}
}

// TestTCPUnderChaosMatchesSimulatorBitExact raises the stakes of the
// equivalence check: two clients are severed mid-run (one of them twice).
// With a generous round deadline each reconnects in time to re-send its
// in-flight update, so every client still participates in every round —
// and the result must STILL be bit-identical to the in-process simulator.
func TestTCPUnderChaosMatchesSimulatorBitExact(t *testing.T) {
	f := newSimFixture(tinyModel)
	simGlobal := f.simGlobal()
	results, srv := f.runUnderChaos(t, wire.CodecDense)

	reconnects := 0
	for _, r := range results {
		reconnects += r.Reconnects
	}
	if reconnects < 3 {
		t.Errorf("expected 3 resumptions, got %d", reconnects)
	}
	if n := srv.PartialRounds(); n != 0 {
		t.Errorf("%d partial rounds under a generous deadline", n)
	}
	requireMatchesSimulator(t, results, simGlobal)
}

// TestTCPKillRestartMatchesSimulatorBitExact is the durability acceptance
// scenario: the coordinator is crashed mid-run by a scripted kill-server
// fault (on top of a client sever, so session resume and checkpoint
// recovery compose), a fresh server process recovers from the checkpoint
// directory on the same address, the clients ride through on their
// reconnect budget — and the final weights must STILL be bit-identical to
// an uninterrupted in-process simulator run. The replayed GlobalMsgs
// rebuild every client's freezing mask exactly; the per-round mask-hash
// cross-check would abort the run on any divergence.
func TestTCPKillRestartMatchesSimulatorBitExact(t *testing.T) {
	f := newSimFixture(tinyModel)
	simGlobal := f.simGlobal()
	results := f.runKillRestart(t, wire.CodecDense)

	reconnects := 0
	for _, r := range results {
		reconnects += r.Reconnects
	}
	if reconnects < simClients {
		t.Errorf("every client should have resumed onto the restarted server; %d resumptions", reconnects)
	}
	requireMatchesSimulator(t, results, simGlobal)
}

// nanOnceManager wraps an APF manager whose upload of round `at` carries a
// NaN scalar; every other upload, and the manager's own state, is the
// wrapped manager's.
type nanOnceManager struct {
	*core.Manager
	at int
}

func (m *nanOnceManager) PrepareUpload(round int, x []float64) ([]float64, float64, int64) {
	contrib, weight, up := m.Manager.PrepareUpload(round, x)
	if round != m.at {
		return contrib, weight, up
	}
	out := slices.Clone(contrib)
	out[len(out)/2] = math.NaN()
	return out, weight, up
}

// TestSimulatorWithholdsLikeTCP: one client (1) uploads a NaN scalar in
// round 2. The in-process simulator and a fault-tolerant TCP cluster of
// the same workload admit contributions by the same rule, so both withhold
// that one update and end with the bit-identical model on every client —
// the simulator's clients' models read from their managers' references,
// which ApplyDownload makes the model — finite everywhere.
func TestSimulatorWithholdsLikeTCP(t *testing.T) {
	f := newSimFixture(tinyModel)
	apf := f.factory
	var simManagers []*core.Manager
	f.factory = func(clientID, dim int) fl.SyncManager {
		m := apf(clientID, dim).(*core.Manager)
		simManagers = append(simManagers, m)
		if clientID == 1 {
			return &nanOnceManager{Manager: m, at: 2}
		}
		return m
	}
	simGlobal := f.simGlobal()
	f.factory = func(clientID, dim int) fl.SyncManager {
		m := apf(clientID, dim).(*core.Manager)
		if clientID == 1 {
			return &nanOnceManager{Manager: m, at: 2}
		}
		return m
	}

	res := runSpec(t, f.faultyCluster(ServerConfig{RoundDeadline: 2 * time.Second, MinClients: simClients - 1}, nil, 0, 0))
	if n := res.Root.RejectedUpdates(); n != 1 {
		t.Errorf("TCP server rejected %d updates, want client 1's NaN one", n)
	}
	if n := res.Root.PartialRounds(); n != 1 {
		t.Errorf("%d partial rounds, want round 2 alone", n)
	}
	for c, m := range simManagers {
		model := m.Snapshot().Ref
		if slices.ContainsFunc(model, math.IsNaN) {
			t.Fatalf("simulator client %d holds a NaN model", c)
		}
		if !sameBits(res.Clients[c].FinalModel, model) {
			t.Fatalf("client %d: the TCP cluster and the simulator ended with different models", c)
		}
	}
	requireMatchesSimulator(t, res.Clients, simGlobal)
}
