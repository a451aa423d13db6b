package transport

import (
	"math"
	"reflect"
	"testing"

	"apf/internal/wire"
)

// TestTCPSparseLosslessMatchesSimulatorBitExact is the sparse codec's
// keystone: the identical run through the simulator and through a TCP
// cluster negotiating sparse-lossless must produce the same model the
// dense transport would — positional sparse framing and dense framing are
// interchangeable representations, and the sparse wire is strictly
// smaller once freezing sets in.
func TestTCPSparseLosslessMatchesSimulatorBitExact(t *testing.T) {
	f := newSimFixture(tinyModel)
	sim := f.simGlobal()

	sparse := []wire.Codec{wire.CodecSparse, wire.CodecSparse, wire.CodecSparse}
	results, srv := f.runCluster(t, ServerConfig{Codec: wire.CodecSparse}, sparse)
	requireMatchesSimulator(t, results, sim)

	if n := srv.metrics.codecSessions[wire.CodecSparse].Value(); n != simClients {
		t.Errorf("sparse sessions negotiated = %d, want %d", n, simClients)
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
	budget := denseWire + int64(simClients*simRounds*2*48)
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
	f := newSimFixture(tinyModel)
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
	f := newSimFixture(tinyModel)
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
