package transport

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"apf/internal/chaos"
	"apf/internal/core"
	"apf/internal/fl"
	"apf/internal/nn"
	"apf/internal/stats"
	"apf/internal/telemetry"
)

// chaosOpts parameterizes a fault-tolerant cluster run under a chaos
// script. Client i is named and session-keyed "shard-i"; the script, when
// set, instruments every client's dialer and the server's listener.
type chaosOpts struct {
	clients, rounds int
	deadline        time.Duration
	minClients      int
	script          *chaos.Script
	retries         int
	// backoff optionally overrides (base, max) per client; nil entries and
	// nil func keep fast defaults (10ms, 100ms) so tests stay quick.
	backoff func(i int) (time.Duration, time.Duration)
	// metrics/cmetrics optionally instrument the server and (shared across)
	// the clients.
	metrics  *telemetry.Registry
	cmetrics *telemetry.Registry
}

// runChaosCluster runs a fault-tolerant cluster to completion, failing the
// test on any client or server error.
func runChaosCluster(t *testing.T, mf fl.ManagerFactory, o chaosOpts) ([]*ClientResult, *Server, []float64) {
	t.Helper()
	task := newTinyTask(90, o.clients)
	cfgs := task.clients(mf)
	for i := range cfgs {
		cfg := &cfgs[i]
		cfg.MaxRetries, cfg.Metrics = o.retries, o.cmetrics
		cfg.RetryBaseDelay, cfg.RetryMaxDelay = 10*time.Millisecond, 100*time.Millisecond
		if o.backoff != nil {
			if base, max := o.backoff(i); base > 0 {
				cfg.RetryBaseDelay, cfg.RetryMaxDelay = base, max
			}
		}
	}
	res := runSpec(t, Cluster{
		Root: ServerConfig{
			NumClients:    o.clients,
			Rounds:        o.rounds,
			Init:          task.init,
			IOTimeout:     5 * time.Second,
			RoundDeadline: o.deadline,
			MinClients:    o.minClients,
			Metrics:       o.metrics,
		},
		Clients: cfgs,
		Chaos:   o.script,
	})
	return res.Clients, res.Root, res.Global
}

func apfChaosFactory(clientID, dim int) fl.SyncManager {
	return core.NewManager(core.Config{
		Dim:              dim,
		CheckEveryRounds: 2,
		Threshold:        0.3,
		EMAAlpha:         0.85,
		Seed:             5,
	})
}

// requireSameModel asserts two dense model vectors are bit-identical.
func requireSameModel(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("%s: diverged at scalar %d: %v vs %v", label, j, got[j], want[j])
		}
	}
}

// TestChaosKillAndReconnectBitExact severs clients mid-run; with a
// generous round deadline each severed client reconnects, resumes its
// session, and idempotently re-sends its in-flight update before the
// deadline — so every client still participates in every round and the
// result is bit-identical to a fault-free run.
func TestChaosKillAndReconnectBitExact(t *testing.T) {
	base := chaosOpts{clients: 3, rounds: 12, deadline: 5 * time.Second, retries: 8}
	cleanResults, _, cleanGlobal := runChaosCluster(t, apfChaosFactory, base)

	faulty := base
	faulty.script = chaos.NewScript(7,
		chaos.Fault{Peer: "shard-1", Round: 3, Kind: chaos.Sever},
		chaos.Fault{Peer: "shard-2", Round: 7, Kind: chaos.Sever},
	)
	results, srv, chaosGlobal := runChaosCluster(t, apfChaosFactory, faulty)

	if got := results[1].Reconnects + results[2].Reconnects; got < 2 {
		t.Errorf("expected both severed clients to resume, got %d reconnects", got)
	}
	if n := srv.PartialRounds(); n != 0 {
		t.Errorf("deadline was generous yet %d rounds aggregated partially", n)
	}
	// The server's dense global and every client model must match the
	// fault-free run bit for bit. (Clients are compared to each other, not
	// to the server's dense vector: frozen positions there hold stale
	// bookkeeping values that nothing reads.)
	requireSameModel(t, "chaos vs fault-free global", chaosGlobal, cleanGlobal)
	for c, r := range results {
		requireSameModel(t, fmt.Sprintf("client %d vs fault-free client", c), r.FinalModel, cleanResults[c].FinalModel)
	}
}

// TestChaosPartialWriteTornUpdate tears a client's update mid-message; the
// server sees a torn frame, the client reconnects and re-sends the
// identical update, so the run still matches the fault-free one.
func TestChaosPartialWriteTornUpdate(t *testing.T) {
	base := chaosOpts{clients: 3, rounds: 8, deadline: 5 * time.Second, retries: 8}
	_, _, cleanGlobal := runChaosCluster(t, apfChaosFactory, base)

	faulty := base
	faulty.script = chaos.NewScript(11,
		chaos.Fault{Peer: "shard-0", Round: 2, Kind: chaos.PartialWrite},
	)
	results, srv, chaosGlobal := runChaosCluster(t, apfChaosFactory, faulty)

	if results[0].Reconnects < 1 {
		t.Error("torn-write client never resumed")
	}
	if n := srv.PartialRounds(); n != 0 {
		t.Errorf("%d rounds aggregated partially despite re-sends", n)
	}
	requireSameModel(t, "torn-write vs fault-free global", chaosGlobal, cleanGlobal)
}

// TestChaosSeverDuringBroadcast severs an accepted connection on the
// server's first write of a round — mid-GlobalMsg broadcast. The affected
// client misses the aggregate, reconnects, and replays it from history.
func TestChaosSeverDuringBroadcast(t *testing.T) {
	base := chaosOpts{clients: 3, rounds: 10, deadline: 5 * time.Second, retries: 8}
	_, _, cleanGlobal := runChaosCluster(t, apfChaosFactory, base)

	faulty := base
	faulty.script = chaos.NewScript(13,
		chaos.Fault{Peer: "accept:1", Round: 4, Kind: chaos.Sever, Op: chaos.OnWrite},
	)
	results, srv, chaosGlobal := runChaosCluster(t, apfChaosFactory, faulty)

	total := 0
	for _, r := range results {
		total += r.Reconnects
	}
	if total < 1 {
		t.Error("no client resumed after the broadcast sever")
	}
	if n := srv.PartialRounds(); n != 0 {
		t.Errorf("%d rounds aggregated partially", n)
	}
	requireSameModel(t, "broadcast-sever vs fault-free global", chaosGlobal, cleanGlobal)
}

// evalAccuracy scores a dense model vector on the shared synthetic task.
func evalAccuracy(t *testing.T, model []float64) float64 {
	t.Helper()
	net := tinyModel(stats.SplitRNG(5, 99))
	nn.SetFlat(net.Params(), model)
	_, acc := fl.EvaluateModel(net, newTinyTask(90, 1).ds, 30)
	return acc
}

// TestChaosStragglerPartialAggregation delays one client past a short
// round deadline: the server aggregates without it (weighted partial
// FedAvg), drops its late update as stale, and the straggler catches back
// up from the buffered broadcasts. Everyone still converges to the same
// model, and losing a straggler's rounds must not wreck accuracy.
func TestChaosStragglerPartialAggregation(t *testing.T) {
	base := chaosOpts{clients: 3, rounds: 10, deadline: 5 * time.Second, retries: 4}
	cleanResults, _, _ := runChaosCluster(t, apfChaosFactory, base)

	o := chaosOpts{
		clients:    3,
		rounds:     10,
		deadline:   150 * time.Millisecond,
		minClients: 1,
		retries:    4,
		script: chaos.NewScript(17,
			chaos.Fault{Peer: "shard-2", Round: 3, Kind: chaos.Delay, Delay: 500 * time.Millisecond},
		),
	}
	results, srv, _ := runChaosCluster(t, apfChaosFactory, o)

	if n := srv.PartialRounds(); n < 1 {
		t.Errorf("straggler never missed a deadline: %d partial rounds", n)
	}
	for c, r := range results {
		if r.Rounds != o.rounds {
			t.Errorf("client %d completed %d rounds, want %d", c, r.Rounds, o.rounds)
		}
		requireSameModel(t, fmt.Sprintf("client %d vs client 0", c), r.FinalModel, results[0].FinalModel)
	}

	// Partial-participation accuracy check (recorded in EXPERIMENTS.md):
	// the run that aggregated without the straggler must land within a few
	// points of the full-participation run.
	fullAcc := evalAccuracy(t, cleanResults[0].FinalModel)
	partAcc := evalAccuracy(t, results[0].FinalModel)
	t.Logf("accuracy: full participation %.3f, partial (%d partial rounds) %.3f",
		fullAcc, srv.PartialRounds(), partAcc)
	if partAcc < fullAcc-0.10 {
		t.Errorf("partial participation cost too much accuracy: %.3f vs %.3f", partAcc, fullAcc)
	}
}

// TestChaosScriptedAcceptanceRun is the issue's scripted scenario: one
// client is killed at round 3 and — held back by a slow backoff — resumes
// only rounds later via history replay, while a straggler sleeps past the
// deadline every 4th round. The run must complete every round without
// deadlock, with partial aggregation covering the gaps.
func TestChaosScriptedAcceptanceRun(t *testing.T) {
	const rounds = 16
	script := chaos.NewScript(23,
		append([]chaos.Fault{{Peer: "shard-1", Round: 3, Kind: chaos.Sever}},
			stragglerFaults(3, rounds, 4)...)...)
	o := chaosOpts{
		clients:    3,
		rounds:     rounds,
		deadline:   150 * time.Millisecond,
		minClients: 1,
		retries:    8,
		script:     script,
		backoff: func(i int) (time.Duration, time.Duration) {
			if i == 1 {
				// Slow reconnect: shard-1 sits out a couple of rounds and
				// must replay the aggregates it missed.
				return 400 * time.Millisecond, 400 * time.Millisecond
			}
			return 0, 0
		},
	}
	results, srv, _ := runChaosCluster(t, apfChaosFactory, o)

	if results[1].Reconnects < 1 {
		t.Error("killed client never resumed")
	}
	if n := srv.PartialRounds(); n < 1 {
		t.Errorf("expected partial rounds while shard-1 was away, got %d", n)
	}
	for c, r := range results {
		if r.Rounds != rounds {
			t.Errorf("client %d completed %d rounds, want %d", c, r.Rounds, rounds)
		}
		requireSameModel(t, fmt.Sprintf("client %d vs client 0", c), r.FinalModel, results[0].FinalModel)
	}
}

// stragglerFaults scripts a delay past the deadline for shard-2 at every
// step-th round starting from first.
func stragglerFaults(first, rounds, step int) []chaos.Fault {
	var out []chaos.Fault
	for r := first; r < rounds; r += step {
		out = append(out, chaos.Fault{
			Peer: "shard-2", Round: r, Kind: chaos.Delay, Delay: 400 * time.Millisecond,
		})
	}
	return out
}

// TestMaskDivergenceRejected forces two raw clients to report different
// freezing-mask hashes for the same round; the server must abort with the
// typed ErrMaskDivergence.
func TestMaskDivergenceRejected(t *testing.T) {
	srv := startServer(t, 2, 2)
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()

	var peers []*rawPeer
	for i := 0; i < 2; i++ {
		peer := dialRaw(t, srv.Addr().String())
		defer peer.conn.Close()
		peer.send(&JoinMsg{Name: fmt.Sprintf("fork-%d", i)})
		peers = append(peers, peer)
	}
	for _, peer := range peers {
		peer.welcome()
	}
	// Same round, same geometry — but the clients disagree on which
	// parameters are frozen.
	for i, peer := range peers {
		peer.send(&UpdateMsg{
			Round:    0,
			Payload:  []float64{1, 2, 3},
			Weight:   1,
			MaskHash: uint64(100 + i),
		})
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrMaskDivergence) {
			t.Errorf("expected ErrMaskDivergence, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server hung on diverged masks")
	}
}
