package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"reflect"
	"strings"
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

// TestServerRefusesDenseUpdateOnSparseCluster: a dense UpdateMsg is legal
// only on a dense cluster, as a SparseUpdateMsg is only on a sparse one. On
// a sparse cluster the reader retires its sender before the update reaches
// the round, so a full-length intruder stored first cannot make the
// aggregator refuse the round's compact updates as mismatched lengths.
func TestServerRefusesDenseUpdateOnSparseCluster(t *testing.T) {
	init := []float64{1, 2, 3, 4}
	dense := &UpdateMsg{Round: 0, Weight: 1, Payload: []float64{9, 9, 9, 9}}
	// start runs a one-round sparse-q16 server; join registers a raw peer.
	start := func(t *testing.T, cfg ServerConfig) (addr string, done chan error) {
		cfg.Addr, cfg.Rounds, cfg.Init, cfg.Codec, cfg.IOTimeout = "127.0.0.1:0", 1, init, wire.CodecSparseQ16, 2*time.Second
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		done = make(chan error, 1)
		go func() {
			defer cancel()
			_, err := srv.Run(ctx)
			done <- err
		}()
		t.Cleanup(cancel)
		return srv.Addr().String(), done
	}
	join := func(t *testing.T, addr string) *rawPeer {
		p := dialRaw(t, addr)
		t.Cleanup(func() { p.conn.Close() })
		p.send(&JoinMsg{Name: "c"})
		p.welcome()
		return p
	}
	// closed reports whether the server has closed p's connection.
	closed := func(p *rawPeer) bool {
		_ = p.conn.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
		_, err := p.conn.Read(make([]byte, 1))
		return err != nil && !errors.Is(err, os.ErrDeadlineExceeded)
	}

	t.Run("strict", func(t *testing.T) {
		addr, done := start(t, ServerConfig{NumClients: 1})
		join(t, addr).send(dense)
		select {
		case err := <-done:
			if !errors.Is(err, errProtocol) || !strings.Contains(err.Error(), "dense update on a sparse-q16 cluster") {
				t.Fatalf("Run: %v, want a protocol error naming the dense update and the codec", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("server hung on a dense update")
		}
	})

	t.Run("fault-tolerant", func(t *testing.T) {
		reg := telemetry.New()
		var sink lockedBuffer
		log, err := telemetry.NewLogger(&sink, slog.LevelDebug, "json")
		if err != nil {
			t.Fatal(err)
		}
		addr, done := start(t, ServerConfig{NumClients: 3, RoundDeadline: 300 * time.Millisecond, Metrics: reg, Log: log})
		intruder, honest := join(t, addr), []*rawPeer{join(t, addr), join(t, addr)}
		intruder.send(dense)
		// Hold the honest updates until the server has dealt with the
		// dense one: stored it, or closed its sender.
		for deadline := time.Now().Add(5 * time.Second); reg.Snapshot()["apf_updates_received_total"] == 0 && !closed(intruder); {
			if time.Now().After(deadline) {
				t.Fatal("the server neither stored the dense update nor closed its sender")
			}
		}
		for i, p := range honest {
			v := float64(2 * i)
			p.send(&SparseUpdateMsg{Round: 0, Weight: 1, MaskHash: 0xfeed, MaskGen: 1, Dim: len(init), Enc: wire.EncF16,
				Values: []float64{v, v}}) // two unfrozen scalars of four
		}
		for i, p := range honest {
			g, ok := p.recv().(*SparseGlobalMsg)
			if !ok || g.Participants != 2 {
				t.Fatalf("honest client %d: got %#v, want a sparse global of the two honest updates", i, g)
			}
		}
		if err := <-done; err != nil {
			t.Fatalf("Run: %v", err)
		}
		snap := reg.Snapshot()
		if got := snap[`apf_updates_total{result="rejected"}`]; got != 0 {
			t.Errorf("%v updates rejected, want 0: the dense update reached the round", got)
		}
		if got := snap[`apf_updates_total{result="accepted"}`]; got != 2 {
			t.Errorf("%v updates accepted, want the 2 honest ones", got)
		}
		if !closed(intruder) {
			t.Error("the server kept the dense sender's connection open")
		}
		// The run goes on without the intruder, and the log says why it
		// was dropped.
		var reasons []string
		for _, line := range strings.Split(strings.TrimSuffix(sink.String(), "\n"), "\n") {
			var ev struct {
				Msg, Name, Err string
				Client         int
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("log line is not one JSON object: %v\n%s", err, line)
			}
			if ev.Msg == "session detached" {
				reasons = append(reasons, fmt.Sprintf("client %d (%s): %s", ev.Client, ev.Name, ev.Err))
			}
		}
		if len(reasons) != 1 || !strings.Contains(reasons[0], "client 0 (c): ") ||
			!strings.Contains(reasons[0], "dense update on a sparse-q16 cluster") {
			t.Errorf("detached sessions logged as %q, want the intruder, client 0, with the refusal", reasons)
		}
	})
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
// round's memory discipline: the upload is framed from the run's message
// into its in-flight buffer, and the sparse global's vector (which the
// run's FrameReader streams into its down vector) is applied where it
// lies, so neither allocates per round. The manager is
// sparse-q16-durable's (APF# 0.9, a check every round), and the round's
// aggregate is the client's own update, rounded to binary16 as the
// server's commit rounds it.
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
	echo := make([]float64, dim)
	g := &wire.SparseGlobalMsg{Participants: 1, Dim: dim, Enc: wire.EncF16}
	round := func() {
		n := r.applied + 1
		for j := range r.rep.X {
			r.rep.X[j] += 0x1p-10
		}
		contrib, weight, _ := mgr.PrepareUpload(n, r.rep.X)
		payload := mgr.CompactUpload(n, contrib)
		r.prepare(n, payload, weight)
		g.Round, g.MaskHash, g.MaskGen = n, HashMaskWords(mgr.MaskWords()), mgr.MaskGeneration()
		g.Values = quantize.RoundTripSlice(append(echo[:0], payload...))
		global, err := r.acceptGlobal(g, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.applyGlobal(&global); err != nil {
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

// TestDensePassthroughClientRoundAllocations is the dense twin of
// TestSparseQ16ClientRoundAllocations, on dense-256k's manager: the FedAvg
// baseline's upload is the model itself, framed at once into the run's
// in-flight buffer, and the dense global is copied into the model, so a
// warm round allocates nothing. The round's aggregate is the client's own
// update.
func TestDensePassthroughClientRoundAllocations(t *testing.T) {
	const dim = 1000
	mgr := fl.NewPassthroughManager(8)
	r := &clientRun{
		cfg:     ClientConfig{Codec: wire.CodecDense},
		res:     &ClientResult{},
		metrics: newClientMetrics(nil),
		log:     telemetry.With(nil),
		rep:     &fl.Replica{X: make([]float64, dim), Manager: mgr},
		dim:     dim,
		applied: -1,
	}
	echo := make([]float64, dim)
	g := &GlobalMsg{Participants: 1}
	round := func() {
		n := r.applied + 1
		for j := range r.rep.X {
			r.rep.X[j] += 0x1p-10
		}
		contrib, weight, _ := mgr.PrepareUpload(n, r.rep.X)
		r.prepare(n, contrib, weight)
		g.Round, g.Payload = n, append(echo[:0], contrib...)
		global, err := r.acceptGlobal(g, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.applyGlobal(&global); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("a warm dense passthrough client round allocates %v times, want 0", avg)
	}
}
