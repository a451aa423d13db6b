package transport

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"apf/internal/core"
	"apf/internal/fl"
	"apf/internal/quantize"
	"apf/internal/telemetry"
	"apf/internal/wire"
)

// TestTCPSparseLosslessMatchesSimulatorBitExact is the sparse codec's
// keystone: the identical run through the simulator and through a sparse
// TCP cluster must produce the same model the dense transport would —
// positional sparse framing and dense framing are interchangeable
// representations, and the sparse wire is strictly smaller once freezing
// sets in.
func TestTCPSparseLosslessMatchesSimulatorBitExact(t *testing.T) {
	f := newSimFixture(tinyModel)
	sim := f.simGlobal()

	results, srv := f.runCluster(t, ServerConfig{Codec: wire.CodecSparse})
	requireMatchesSimulator(t, results, sim)

	// Every update crossed the wire sparse.
	in := srv.wireM.frames[dirIn]
	if n, dense := in[wire.KindSparseUpdate].Value(), in[wire.KindUpdate].Value(); n != simClients*simRounds || dense != 0 {
		t.Errorf("server read %d sparse and %d dense updates, want %d sparse and none dense",
			n, dense, simClients*simRounds)
	}

	// The dense control arm: same fixture, dense codec, same bit-exact
	// model. Dense payloads are already mask-compacted, so lossless sparse
	// framing carries the identical scalars plus a fixed metadata overhead
	// (mask hash, generation, dim, encoding tag) per frame — bounded here
	// at 48 bytes per update/broadcast pair per client-round.
	denseResults, _ := f.runCluster(t, ServerConfig{})
	requireMatchesSimulator(t, denseResults, sim)
	var sparseWire, denseWire int64
	for i := range results {
		sparseWire += results[i].WireRead + results[i].WireWritten
		denseWire += denseResults[i].WireRead + denseResults[i].WireWritten
	}
	budget := denseWire + int64(simClients*simRounds*2*48)
	if sparseWire > budget {
		t.Errorf("sparse cluster moved %d wire bytes, dense %d; overhead exceeds the metadata budget %d",
			sparseWire, denseWire, budget)
	}
}

// TestClientRefusesForeignCodec: a cluster speaks one codec. A dense
// client joining a sparse server refuses the Welcome with a protocol
// error, at once, without spending its reconnect budget.
func TestClientRefusesForeignCodec(t *testing.T) {
	f := newSimFixture(tinyModel)
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: simClients, Rounds: simRounds, Init: f.init,
		Codec: wire.CodecSparse, Metrics: telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	serverDone := make(chan struct{})
	go func() {
		defer close(serverDone)
		_, _ = srv.Run(ctx)
	}()
	defer func() { cancel(); <-serverDone }()

	cfg := f.clients(wire.CodecDense)[0]
	cfg.Addr, cfg.MaxRetries = srv.Addr().String(), 3
	if _, err := RunClient(ctx, cfg); !errors.Is(err, errProtocol) {
		t.Fatalf("dense client on a sparse server: got %v, want a protocol error", err)
	}
	if n := srv.metrics.connsTotal.Value(); n != 1 {
		t.Errorf("server accepted %d connections, want 1: the refusal spent retries", n)
	}
}

// TestTCPQ16ClusterConsistent checks the quantized codec's consistency
// contract rather than simulator equality (binary16 changes the
// trajectory by design): with the server quantizing every commit, an
// all-q16 cluster must end with every client holding the identical model
// — whether a round reached it as a half-precision sparse frame or, for
// rounds without mask evidence, as a full-precision dense frame of the
// quantized commit.
func TestTCPQ16ClusterConsistent(t *testing.T) {
	f := newSimFixture(tinyModel)
	results, _ := f.runCluster(t, ServerConfig{Codec: wire.CodecSparseQ16})
	for c := 1; c < len(results); c++ {
		if !reflect.DeepEqual(results[c].FinalModel, results[0].FinalModel) {
			t.Fatalf("client %d's final model diverged from client 0's", c)
		}
	}
	// The q16 cluster's measured wire traffic stays well under a dense
	// run of the same fixture: every unfrozen scalar crosses at 2 bytes
	// instead of 8.
	denseResults, _ := f.runCluster(t, ServerConfig{})
	var q16Wire, denseWire int64
	for i := range results {
		q16Wire += results[i].WireRead + results[i].WireWritten
		denseWire += denseResults[i].WireRead + denseResults[i].WireWritten
	}
	if q16Wire >= denseWire {
		t.Errorf("q16 cluster moved %d wire bytes, dense cluster %d; quantization must shrink the wire",
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
// mid-run: each reconnect checks the Welcome's codec again, re-sends the
// in-flight update as a sparse frame, and the run must still match the
// simulator bit for bit — the acceptance bar for sparse-lossless under
// chaos.
func TestTCPSparseUnderChaosMatchesSimulatorBitExact(t *testing.T) {
	f := newSimFixture(tinyModel)
	sim := f.simGlobal()
	results, _ := f.runUnderChaos(t, wire.CodecSparse)

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
	f := newSimFixture(tinyModel)
	sim := f.simGlobal()
	requireMatchesSimulator(t, f.runKillRestart(t, wire.CodecSparse), sim)
}

// TestSparseQ16ClientRoundAllocations pins a warm sparse-q16 client
// round's memory discipline: the upload packs its halves into the run's
// buffer and the sparse global decodes into the run's vector (sized by
// checkpoint.Refit), so neither allocates per round. The manager is
// sparse-q16-durable's (APF# 0.9, a check every round), and the round's
// aggregate is the client's own update, echoed back in binary16.
func TestSparseQ16ClientRoundAllocations(t *testing.T) {
	const dim = 1000
	mgr := core.NewManager(core.Config{Dim: dim, Seed: 1, CheckEveryRounds: 1,
		Random: core.RandomFreeze{Mode: core.RandomFixed, Prob: 0.9}})
	r := &clientRun{
		cfg:      ClientConfig{Codec: wire.CodecSparseQ16},
		res:      &ClientResult{},
		metrics:  newClientMetrics(nil),
		log:      telemetry.With(nil),
		rep:      &fl.Replica{X: make([]float64, dim), Manager: mgr},
		codec:    mgr,
		hasCodec: true,
		maskGenR: mgr,
		dim:      dim,
		applied:  -1,
	}
	halves := make([]uint16, dim)
	g := &wire.SparseGlobalMsg{Participants: 1, Dim: dim, Enc: wire.EncF16}
	round := func() {
		n := r.applied + 1
		for j := range r.rep.X {
			r.rep.X[j] += 0x1p-10
		}
		contrib, weight, _ := mgr.PrepareUpload(n, r.rep.X)
		payload := mgr.CompactUpload(n, contrib)
		r.prepare(n, payload, weight)
		g.Round, g.MaskHash, g.MaskGen, g.Q = n, HashMaskWords(mgr.MaskWords()), mgr.MaskGeneration(), halves[:len(payload)]
		for i, v := range payload {
			g.Q[i] = quantize.Float64ToHalf(v)
		}
		global, err := r.acceptGlobal(g, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.applyGlobal(global); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("a warm sparse-q16 client round allocates %v times, want 0", avg)
	}
}
