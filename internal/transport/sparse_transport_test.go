package transport

import (
	"context"
	"fmt"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"apf/internal/chaos"
	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/stats"
	"apf/internal/telemetry"
	"apf/internal/wire"
)

// sparseFixture is the shared configuration of the sparse equivalence
// tests: the same synthetic task, shards, and APF hyperparameters as the
// dense equivalence suite, so any divergence is attributable to the codec.
type sparseFixture struct {
	ds      *data.Dataset
	parts   [][]int
	init    []float64
	factory fl.ManagerFactory
}

const (
	sparseSeed    = 61
	sparseClients = 3
	sparseRounds  = 12
	sparseIters   = 3
	sparseBatch   = 10
)

func newSparseFixture() *sparseFixture {
	ds := data.SynthImages(data.ImageConfig{
		Classes: 3, Channels: 1, Size: 6, Samples: 90, NoiseStd: 0.5, Seed: sparseSeed,
	})
	rng := stats.SplitRNG(sparseSeed, 50)
	parts := data.PartitionIID(rng, ds.Len(), sparseClients)
	init := fl.InitVector(tinyModel, sparseSeed)
	factory := func(clientID, dim int) fl.SyncManager {
		return core.NewManager(core.Config{
			Dim:              dim,
			CheckEveryRounds: 2,
			Threshold:        0.3,
			EMAAlpha:         0.85,
			Seed:             sparseSeed,
		})
	}
	return &sparseFixture{ds: ds, parts: parts, init: init, factory: factory}
}

// simGlobal runs the in-process simulator over the fixture and returns its
// dense global — the bit-exactness oracle for every lossless codec.
func (f *sparseFixture) simGlobal() []float64 {
	engine := fl.New(fl.Config{
		Rounds:     sparseRounds,
		LocalIters: sparseIters,
		BatchSize:  sparseBatch,
		Seed:       sparseSeed,
	}, tinyModel, tinySGD, f.factory, f.ds, f.parts, nil)
	engine.Run()
	return engine.Global()
}

// runCluster runs one TCP cluster over the fixture. codecs[i] is client
// i's offered codec; srvCfg customizes the server beyond the fixture
// defaults. Returns the per-client results and the finished server (its
// metrics registry stays readable).
func (f *sparseFixture) runCluster(t *testing.T, srvCfg ServerConfig, codecs []wire.Codec) ([]*ClientResult, *Server) {
	t.Helper()
	srvCfg.Addr = "127.0.0.1:0"
	srvCfg.NumClients = sparseClients
	srvCfg.Rounds = sparseRounds
	srvCfg.Init = f.init
	srvCfg.Metrics = telemetry.New() // the tests read codec/bytes-saved counters
	srv, err := NewServer(srvCfg)
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

	results := make([]*ClientResult, sparseClients)
	errs := make([]error, sparseClients)
	var wg sync.WaitGroup
	for i := 0; i < sparseClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunClient(ctx, ClientConfig{
				Addr:       srv.Addr().String(),
				Name:       fmt.Sprintf("sp-%d", i),
				Model:      tinyModel,
				Optimizer:  tinySGD,
				Manager:    f.factory,
				Data:       f.ds,
				Indices:    f.parts[i],
				LocalIters: sparseIters,
				BatchSize:  sparseBatch,
				Seed:       sparseSeed,
				Codec:      codecs[i],
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
	return results, srv
}

// TestTCPSparseLosslessMatchesSimulatorBitExact is the sparse codec's
// keystone: the identical run through the simulator and through a TCP
// cluster negotiating sparse-lossless must produce the same model the
// dense transport would — positional sparse framing and dense framing are
// interchangeable representations, and the sparse wire is strictly
// smaller once freezing sets in.
func TestTCPSparseLosslessMatchesSimulatorBitExact(t *testing.T) {
	f := newSparseFixture()
	sim := f.simGlobal()

	sparse := []wire.Codec{wire.CodecSparse, wire.CodecSparse, wire.CodecSparse}
	results, srv := f.runCluster(t, ServerConfig{Codec: wire.CodecSparse}, sparse)
	requireMatchesSimulator(t, results, sim)

	if n := srv.metrics.codecSessions[wire.CodecSparse].Value(); n != sparseClients {
		t.Errorf("sparse sessions negotiated = %d, want %d", n, sparseClients)
	}

	// The dense control arm: same fixture, dense codec, same bit-exact
	// model. Dense payloads are already mask-compacted, so lossless sparse
	// framing carries the identical scalars plus a fixed metadata overhead
	// (mask hash, generation, dim, encoding tag) per frame — bounded here
	// at 48 bytes per update/broadcast pair per client-round.
	dense := []wire.Codec{wire.CodecDense, wire.CodecDense, wire.CodecDense}
	denseResults, _ := f.runCluster(t, ServerConfig{}, dense)
	requireMatchesSimulator(t, denseResults, sim)
	var sparseWire, denseWire int64
	for i := range results {
		sparseWire += results[i].WireRead + results[i].WireWritten
		denseWire += denseResults[i].WireRead + denseResults[i].WireWritten
	}
	budget := denseWire + int64(sparseClients*sparseRounds*2*48)
	if sparseWire > budget {
		t.Errorf("sparse cluster moved %d wire bytes, dense %d; overhead exceeds the metadata budget %d",
			sparseWire, denseWire, budget)
	}
}

// TestTCPMixedCodecClusterBitExact runs one dense client alongside two
// sparse ones under a sparse-capable server: negotiation is per-session,
// the broadcast cache frames each round once per codec, and the cluster
// still converges bit-identically to the simulator.
func TestTCPMixedCodecClusterBitExact(t *testing.T) {
	f := newSparseFixture()
	sim := f.simGlobal()
	mixed := []wire.Codec{wire.CodecDense, wire.CodecSparse, wire.CodecSparse}
	results, srv := f.runCluster(t, ServerConfig{Codec: wire.CodecSparse}, mixed)
	requireMatchesSimulator(t, results, sim)
	if n := srv.metrics.codecSessions[wire.CodecDense].Value(); n != 1 {
		t.Errorf("dense sessions = %d, want 1", n)
	}
	if n := srv.metrics.codecSessions[wire.CodecSparse].Value(); n != 2 {
		t.Errorf("sparse sessions = %d, want 2", n)
	}
}

// TestTCPQ16ClusterConsistent checks the quantized codec's consistency
// contract rather than simulator equality (binary16 changes the
// trajectory by design): with the server quantizing every commit, a mixed
// dense/q16 cluster must end with every client holding the identical
// model — the dense client reads full-precision frames of quantized
// commits, the q16 clients decode half-precision frames, and both see the
// same values.
func TestTCPQ16ClusterConsistent(t *testing.T) {
	f := newSparseFixture()
	mixed := []wire.Codec{wire.CodecDense, wire.CodecSparseQ16, wire.CodecSparseQ16}
	results, srv := f.runCluster(t, ServerConfig{Codec: wire.CodecSparseQ16}, mixed)
	for c := 1; c < len(results); c++ {
		if !reflect.DeepEqual(results[c].FinalModel, results[0].FinalModel) {
			t.Fatalf("client %d's final model diverged from client 0's", c)
		}
	}
	if n := srv.metrics.codecSessions[wire.CodecSparseQ16].Value(); n != 2 {
		t.Errorf("q16 sessions = %d, want 2", n)
	}
	// Half-precision broadcasts beat the dense frames of the same rounds.
	if saved := srv.metrics.sparseSavedBytes.Value(); saved <= 0 {
		t.Errorf("q16 broadcasts saved %d bytes vs dense frames; want > 0", saved)
	}
	// And the q16 clients' measured wire traffic stays well under the dense
	// client's: every scalar crosses at 2 bytes instead of 8.
	q16Wire := results[1].WireRead + results[1].WireWritten
	denseWire := results[0].WireRead + results[0].WireWritten
	if q16Wire >= denseWire {
		t.Errorf("q16 client moved %d wire bytes, dense client %d; quantization must shrink the wire",
			q16Wire, denseWire)
	}
	// The final model must not be the all-dense trajectory: quantized
	// commits really happened.
	for _, v := range results[0].FinalModel {
		if v != 0 && math.Abs(v) < 1e-300 {
			t.Fatalf("subnormal scalar %v survived binary16 commits", v)
		}
	}
}

// TestTCPSparseUnderChaosMatchesSimulatorBitExact severs sparse sessions
// mid-run: each reconnect renegotiates the codec, re-sends the in-flight
// update as a sparse frame, and the run must still match the simulator
// bit for bit — the acceptance bar for sparse-lossless under chaos.
func TestTCPSparseUnderChaosMatchesSimulatorBitExact(t *testing.T) {
	f := newSparseFixture()
	sim := f.simGlobal()

	script := chaos.NewScript(29,
		chaos.Fault{Peer: "spc-0", Round: 2, Kind: chaos.Sever},
		chaos.Fault{Peer: "spc-1", Round: 5, Kind: chaos.PartialWrite},
		chaos.Fault{Peer: "spc-1", Round: 9, Kind: chaos.Sever},
	)

	srv, err := NewServer(ServerConfig{
		Addr:          "127.0.0.1:0",
		NumClients:    sparseClients,
		Rounds:        sparseRounds,
		Init:          f.init,
		RoundDeadline: 5 * time.Second,
		Codec:         wire.CodecSparse,
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

	results := make([]*ClientResult, sparseClients)
	errs := make([]error, sparseClients)
	var wg sync.WaitGroup
	for i := 0; i < sparseClients; i++ {
		name := fmt.Sprintf("spc-%d", i)
		cfg := ClientConfig{
			Addr:           srv.Addr().String(),
			Name:           name,
			SessionKey:     name,
			Model:          tinyModel,
			Optimizer:      tinySGD,
			Manager:        f.factory,
			Data:           f.ds,
			Indices:        f.parts[i],
			LocalIters:     sparseIters,
			BatchSize:      sparseBatch,
			Seed:           sparseSeed,
			Codec:          wire.CodecSparse,
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
	requireMatchesSimulator(t, results, sim)
}

// TestTCPSparseKillRestartBitExact crashes a durable sparse coordinator
// mid-run and recovers it from the checkpoint directory: the recovered
// rounds re-frame as dense broadcasts, and the finished run still matches
// the simulator bit for bit.
func TestTCPSparseKillRestartBitExact(t *testing.T) {
	f := newSparseFixture()
	sim := f.simGlobal()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	dir := t.TempDir()
	script := chaos.NewScript(29,
		chaos.Fault{Peer: "spk-1", Round: 3, Kind: chaos.Sever},
		chaos.Fault{Round: 7, Kind: chaos.KillServer},
	)
	srvCtx, kill := context.WithCancel(ctx)
	defer kill()
	script.SetOnKill(kill)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mkServer := func(ln net.Listener, addr string) *Server {
		t.Helper()
		srv, err := NewServer(ServerConfig{
			Addr:          addr,
			Listener:      ln,
			NumClients:    sparseClients,
			Rounds:        sparseRounds,
			Init:          f.init,
			RoundDeadline: 5 * time.Second,
			CheckpointDir: dir,
			SnapshotEvery: 3,
			Codec:         wire.CodecSparse,
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

	results := make([]*ClientResult, sparseClients)
	errs := make([]error, sparseClients)
	var wg sync.WaitGroup
	for i := 0; i < sparseClients; i++ {
		name := fmt.Sprintf("spk-%d", i)
		cfg := ClientConfig{
			Addr:           addr,
			Name:           name,
			SessionKey:     name,
			Model:          tinyModel,
			Optimizer:      tinySGD,
			Manager:        f.factory,
			Data:           f.ds,
			Indices:        f.parts[i],
			LocalIters:     sparseIters,
			BatchSize:      sparseBatch,
			Seed:           sparseSeed,
			Codec:          wire.CodecSparse,
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

	if err := <-srv1Err; err == nil {
		t.Fatal("server 1 finished the run; the kill fault never fired")
	}
	srv2 := mkServer(nil, addr)
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
	requireMatchesSimulator(t, results, sim)
}
