package transport

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"apf/internal/chaos"
	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/nn"
	"apf/internal/stats"
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

func tcpMatchesSimulator(t *testing.T, model fl.ModelFactory) {
	const (
		seed    = 61
		clients = 3
		rounds  = 12
		iters   = 3
		batch   = 10
	)
	ds := data.SynthImages(data.ImageConfig{
		Classes: 3, Channels: 1, Size: 6, Samples: 90, NoiseStd: 0.5, Seed: seed,
	})
	rng := stats.SplitRNG(seed, 50)
	parts := data.PartitionIID(rng, ds.Len(), clients)

	var tcpManagers []*core.Manager
	apfFactory := func(capture bool) fl.ManagerFactory {
		return func(clientID, dim int) fl.SyncManager {
			m := core.NewManager(core.Config{
				Dim:              dim,
				CheckEveryRounds: 2,
				Threshold:        0.3,
				EMAAlpha:         0.85,
				Seed:             seed,
			})
			if capture {
				tcpManagers = append(tcpManagers, m)
			}
			return m
		}
	}

	// Arm 1: the in-process simulator.
	engine := fl.New(fl.Config{
		Rounds:     rounds,
		LocalIters: iters,
		BatchSize:  batch,
		Seed:       seed,
	}, model, tinySGD, apfFactory(false), ds, parts, nil)
	engine.Run()
	simGlobal := engine.Global()

	// Arm 2: a real TCP cluster with the identical configuration. The
	// server starts from the same canonical init the engine derives.
	initNet := model(stats.SplitRNG(seed, 1_000_000))
	init := nn.FlattenParams(initNet.Params(), nil)
	srv, err := NewServer(ServerConfig{
		Addr:       "127.0.0.1:0",
		NumClients: clients,
		Rounds:     rounds,
		Init:       init,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		serverErr <- err
	}()

	// Dial sequentially (with a registration head start per client) so
	// the accept order — and therefore each client's server-assigned id —
	// matches the shard it trains, exactly as in the simulator.
	results := make([]*ClientResult, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunClient(ctx, ClientConfig{
				Addr:       srv.Addr().String(),
				Name:       "eq",
				Model:      model,
				Optimizer:  tinySGD,
				Manager:    apfFactory(true),
				Data:       ds,
				Indices:    parts[i],
				LocalIters: iters,
				BatchSize:  batch,
				Seed:       seed,
			})
		}(i)
		time.Sleep(100 * time.Millisecond)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("server: %v", err)
	}

	if len(tcpManagers) != clients {
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
	const (
		seed    = 61
		clients = 3
		rounds  = 12
		iters   = 3
		batch   = 10
	)
	ds := data.SynthImages(data.ImageConfig{
		Classes: 3, Channels: 1, Size: 6, Samples: 90, NoiseStd: 0.5, Seed: seed,
	})
	rng := stats.SplitRNG(seed, 50)
	parts := data.PartitionIID(rng, ds.Len(), clients)
	apfFactory := func(clientID, dim int) fl.SyncManager {
		return core.NewManager(core.Config{
			Dim:              dim,
			CheckEveryRounds: 2,
			Threshold:        0.3,
			EMAAlpha:         0.85,
			Seed:             seed,
		})
	}

	engine := fl.New(fl.Config{
		Rounds:     rounds,
		LocalIters: iters,
		BatchSize:  batch,
		Seed:       seed,
	}, tinyModel, tinySGD, apfFactory, ds, parts, nil)
	engine.Run()
	simGlobal := engine.Global()

	script := chaos.NewScript(29,
		chaos.Fault{Peer: "eq-0", Round: 2, Kind: chaos.Sever},
		chaos.Fault{Peer: "eq-1", Round: 5, Kind: chaos.PartialWrite},
		chaos.Fault{Peer: "eq-1", Round: 9, Kind: chaos.Sever},
	)

	initNet := tinyModel(stats.SplitRNG(seed, 1_000_000))
	init := nn.FlattenParams(initNet.Params(), nil)
	srv, err := NewServer(ServerConfig{
		Addr:          "127.0.0.1:0",
		NumClients:    clients,
		Rounds:        rounds,
		Init:          init,
		RoundDeadline: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		serverErr <- err
	}()

	results := make([]*ClientResult, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		name := fmt.Sprintf("eq-%d", i)
		cfg := ClientConfig{
			Addr:           srv.Addr().String(),
			Name:           name,
			SessionKey:     name,
			Model:          tinyModel,
			Optimizer:      tinySGD,
			Manager:        apfFactory,
			Data:           ds,
			Indices:        parts[i],
			LocalIters:     iters,
			BatchSize:      batch,
			Seed:           seed,
			MaxRetries:     8,
			RetryBaseDelay: 10 * time.Millisecond,
			RetryMaxDelay:  100 * time.Millisecond,
			Dial: DialFunc(script.Dialer(name, func(network, addr string) (net.Conn, error) {
				return net.DialTimeout(network, addr, 5*time.Second)
			})),
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunClient(ctx, cfg)
		}(i)
		time.Sleep(100 * time.Millisecond)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("server: %v", err)
	}

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
	const (
		seed    = 61
		clients = 3
		rounds  = 12
		iters   = 3
		batch   = 10
	)
	ds := data.SynthImages(data.ImageConfig{
		Classes: 3, Channels: 1, Size: 6, Samples: 90, NoiseStd: 0.5, Seed: seed,
	})
	rng := stats.SplitRNG(seed, 50)
	parts := data.PartitionIID(rng, ds.Len(), clients)
	apfFactory := func(clientID, dim int) fl.SyncManager {
		return core.NewManager(core.Config{
			Dim:              dim,
			CheckEveryRounds: 2,
			Threshold:        0.3,
			EMAAlpha:         0.85,
			Seed:             seed,
		})
	}

	engine := fl.New(fl.Config{
		Rounds:     rounds,
		LocalIters: iters,
		BatchSize:  batch,
		Seed:       seed,
	}, tinyModel, tinySGD, apfFactory, ds, parts, nil)
	engine.Run()
	simGlobal := engine.Global()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Server 1: durable, crashed by the chaos script when round 7 is
	// announced (rounds 0..6 committed; round 7's partials die with it).
	// A client sever at round 3 composes session resume with recovery.
	dir := t.TempDir()
	script := chaos.NewScript(29,
		chaos.Fault{Peer: "kr-1", Round: 3, Kind: chaos.Sever},
		chaos.Fault{Round: 7, Kind: chaos.KillServer},
	)
	srvCtx, kill := context.WithCancel(ctx)
	defer kill()
	script.SetOnKill(kill) // in-process kill -9: tear down listener + conns
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	initNet := tinyModel(stats.SplitRNG(seed, 1_000_000))
	init := nn.FlattenParams(initNet.Params(), nil)
	mkServer := func(ln net.Listener, addr string) *Server {
		t.Helper()
		srv, err := NewServer(ServerConfig{
			Addr:          addr,
			Listener:      ln,
			NumClients:    clients,
			Rounds:        rounds,
			Init:          init,
			RoundDeadline: 5 * time.Second,
			CheckpointDir: dir,
			SnapshotEvery: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv1 := mkServer(script.Listener(inner), "")
	addr := srv1.Addr().String()
	srv1Err := make(chan error, 1)
	go func() {
		_, err := srv1.Run(srvCtx)
		srv1Err <- err
	}()

	results := make([]*ClientResult, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		name := fmt.Sprintf("kr-%d", i)
		cfg := ClientConfig{
			Addr:           addr,
			Name:           name,
			SessionKey:     name,
			Model:          tinyModel,
			Optimizer:      tinySGD,
			Manager:        apfFactory,
			Data:           ds,
			Indices:        parts[i],
			LocalIters:     iters,
			BatchSize:      batch,
			Seed:           seed,
			MaxRetries:     60,
			RetryBaseDelay: 10 * time.Millisecond,
			RetryMaxDelay:  250 * time.Millisecond,
			Dial: DialFunc(script.Dialer(name, func(network, addr string) (net.Conn, error) {
				return net.DialTimeout(network, addr, 5*time.Second)
			})),
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunClient(ctx, cfg)
		}(i)
		time.Sleep(100 * time.Millisecond)
	}

	// Wait for the crash, then bring up the replacement on the same
	// address with the same checkpoint directory.
	if err := <-srv1Err; err == nil {
		t.Fatal("server 1 finished the run; the kill fault never fired")
	}
	srv2 := mkServer(nil, addr)
	if got := srv2.StartRound(); got != 7 {
		t.Fatalf("recovered server resumes at round %d, want 7 (rounds 0..6 committed)", got)
	}
	srv2Err := make(chan error, 1)
	go func() {
		_, err := srv2.Run(ctx)
		srv2Err <- err
	}()

	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if err := <-srv2Err; err != nil {
		t.Fatalf("server 2: %v", err)
	}

	reconnects := 0
	for _, r := range results {
		reconnects += r.Reconnects
	}
	if reconnects < clients {
		t.Errorf("every client should have resumed onto the restarted server; %d resumptions", reconnects)
	}
	requireMatchesSimulator(t, results, simGlobal)
}
