package transport

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// RunCluster's other guarantees are pinned where the clusters they matter
// to run: a failing relay is reported against its own tier by
// TestRelayRefusesForeignCodec, and a KillServer script restarts the root
// from its CheckpointDir bit-identically to an unkilled twin in
// TestTCPKillRestartMatchesSimulatorBitExact, TestTCPSparseKillRestartBitExact
// and TestResumeKillRestartDuringCatchUpWindow.

// TestRunClusterCancelJoinsEveryTier cancels a two-tier cluster mid-run:
// RunCluster returns promptly, every tier reports the cancellation, and
// no goroutine the cluster started outlives the call: every tier joins
// what it started before its Run returns.
func TestRunClusterCancelJoinsEveryTier(t *testing.T) {
	ds, parts, init := singleSampleSetup(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfgs := passthroughClients(ds, parts)
	for i := range cfgs {
		cfgs[i].MaxRetries = 3
	}
	cfgs[0].OnRound = func(round int, _ []float64) {
		if round == 1 {
			cancel()
		}
	}
	relays := []RelayConfig{
		{Name: "edge-a", SessionKey: "edge-a", NumClients: 2, MaxRetries: 3},
		{Name: "edge-b", SessionKey: "edge-b", NumClients: 2, MaxRetries: 3},
	}
	before := goroutineIDs(leakedGoroutines(0, nil))
	start := time.Now()
	res, err := RunCluster(ctx, Cluster{
		Root:    ServerConfig{Rounds: 1000, Init: init, RoundDeadline: time.Second},
		Relays:  relays,
		Clients: cfgs,
	})
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("RunCluster took %v to return after cancellation", took)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled cluster: got %v, want context.Canceled", err)
	}
	if !errors.Is(res.RootErr, context.Canceled) {
		t.Errorf("root: %v, want context.Canceled", res.RootErr)
	}
	for i, err := range res.RelayErrs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("relay %d: %v, want context.Canceled", i, err)
		}
	}
	if res.Restarts != 0 {
		t.Errorf("a cancelled root was restarted %d times", res.Restarts)
	}
	// A goroutine may signal its join a moment before it returns: give
	// stragglers up to a second, then fail with whatever remains.
	if leaked := leakedGoroutines(time.Second, before); len(leaked) > 0 {
		t.Fatalf("%d goroutine(s) outlived RunCluster:\n\n%s", len(leaked), bytes.Join(leaked, []byte("\n\n")))
	}
}

// goroutineIDs returns the ids of the given goroutine stacks, which the
// test process had already started (TestMain's, a paused parallel test's).
func goroutineIDs(stacks [][]byte) map[string]bool {
	ids := map[string]bool{}
	for _, g := range stacks {
		ids[goroutineID(g)] = true
	}
	return ids
}
