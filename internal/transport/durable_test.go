package transport

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"apf/internal/checkpoint"
	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/nn"
	"apf/internal/stats"
	"apf/internal/telemetry"
)

// TestServerStateCodecRoundTrip round-trips the server snapshot and the
// WAL commit record bit-exactly, and refuses a snapshot payload that stops
// short of the full layout.
func TestServerStateCodecRoundTrip(t *testing.T) {
	st := &serverState{
		NumClients:    3,
		Rounds:        12,
		Init:          []float64{0.5, -1.25, 3},
		Keys:          []string{"k0", "", "k2"},
		Names:         []string{"a", "b", "c"},
		PartialRounds: 2,
		History: []GlobalMsg{
			{Round: 0, Participants: 3, Payload: []float64{1, 2, 3}},
			{Round: 1, Participants: 2, Payload: []float64{4, 5}},
		},
		Validator: &validatorState{
			Strikes:   []int{0, 2, 5},
			Quar:      []bool{false, false, true},
			Norms:     []float64{1.5, 0.25, 3},
			Ref:       []float64{0.25, -0.5, 0.125},
			RefCount:  7,
			QuarRound: []int{-1, -1, 4},
		},
	}
	got, err := decodeServerState(encodeServerState(st))
	if err != nil {
		t.Fatalf("decode server state: %v", err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("server state round trip:\n got %+v\nwant %+v", got, st)
	}

	// Sanitization disabled: the snapshot carries no validator state and
	// decodes back to nil.
	st.Validator = nil
	got, err = decodeServerState(encodeServerState(st))
	if err != nil || got.Validator != nil {
		t.Fatalf("nil-validator round trip: %+v err=%v", got.Validator, err)
	}

	// Every field is always present: a payload cut anywhere (after the
	// norm history, before the catch-up fields, …) is corrupt, never
	// decoded with the missing fields defaulted.
	st.Validator = &validatorState{Strikes: []int{3, 0, 0}, Quar: []bool{true, false, false}, Norms: []float64{2}}
	full := encodeServerState(st)
	for n := 0; n < len(full); n++ {
		if _, err := decodeServerState(full[:n]); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("server state cut to %d/%d bytes: err = %v, want ErrCorrupt", n, len(full), err)
		}
	}

	g := &GlobalMsg{Round: 4, Participants: 3, Payload: []float64{9, 8, 7}}
	gotG, err := decodeWALGlobal(encodeWALGlobal(g))
	if err != nil || !reflect.DeepEqual(gotG, g) {
		t.Fatalf("wal global round trip: g=%+v err=%v", gotG, err)
	}
}

// TestRecoverStateReplaysWAL builds a store by hand and checks recovery
// semantics: committed globals extend the history in order, replays are
// skipped, and a record of any other kind fails recovery with a typed
// corruption error.
func TestRecoverStateReplaysWAL(t *testing.T) {
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	base := &serverState{
		NumClients: 2,
		Rounds:     10,
		Init:       []float64{1, 2},
		Keys:       []string{"k0", "k1"},
		Names:      []string{"c0", "c1"},
		History:    []GlobalMsg{{Round: 0, Participants: 2, Payload: []float64{3, 4}}},
	}
	if err := store.WriteSnapshot(1, kindServerSnap, encodeServerState(base)); err != nil {
		t.Fatal(err)
	}
	append_ := func(kind uint16, payload []byte) {
		t.Helper()
		if err := store.Append(kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Round 1 committed; round 2 was in flight at the crash and left
	// nothing behind.
	append_(kindWALGlobal, encodeWALGlobal(&GlobalMsg{Round: 1, Participants: 1, Payload: []float64{6, 7}}))
	// A replayed commit of round 1 (already in history) must be skipped.
	append_(kindWALGlobal, encodeWALGlobal(&GlobalMsg{Round: 1, Participants: 2, Payload: []float64{0, 0}}))

	st, err := recoverState(store, false)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("no state recovered")
	}
	if len(st.History) != 2 {
		t.Fatalf("recovered %d history rounds, want 2 (round 2 was uncommitted)", len(st.History))
	}
	if st.History[1].Round != 1 || st.History[1].Payload[0] != 6 {
		t.Fatalf("history[1] = %+v, want the committed round 1", st.History[1])
	}
	if st.PartialRounds != 1 { // round 1 committed with 1 of 2 participants
		t.Fatalf("partialRounds = %d, want 1", st.PartialRounds)
	}
	if err := verifyRecovered(st, ServerConfig{NumClients: 2, Rounds: 10, Init: []float64{1, 2}}); err != nil {
		t.Fatalf("verifyRecovered: %v", err)
	}

	// Geometry drift must be refused.
	for _, cfg := range []ServerConfig{
		{NumClients: 3, Rounds: 10, Init: []float64{1, 2}},
		{NumClients: 2, Rounds: 11, Init: []float64{1, 2}},
		{NumClients: 2, Rounds: 10, Init: []float64{1, 2.5}},
		{NumClients: 2, Rounds: 10, Init: []float64{1}},
	} {
		if err := verifyRecovered(st, cfg); err == nil {
			t.Fatalf("verifyRecovered accepted mismatched config %+v", cfg)
		}
	}

	// A CRC-valid record of an unassigned kind is not something any build
	// of this format writes: recovery must refuse it, not skip it.
	append_(kindWALGlobal+1, encodeWALGlobal(&GlobalMsg{Round: 2, Participants: 2, Payload: []float64{1, 1}}))
	if _, err := recoverState(store, false); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("unknown wal record kind: err = %v, want ErrCorrupt", err)
	}
}

// TestWALPartialRecords pins the root tier's WAL semantics for rounds that
// closed with relays missing: the partial-round re-derivation stays off
// there, where Participants counts underlying clients while NumClients
// counts relays.
func TestWALPartialRecords(t *testing.T) {
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	base := &serverState{
		NumClients: 2, // relays on the root tier
		Rounds:     5,
		Init:       []float64{1, 2},
		Keys:       []string{"edge-a", "edge-b"},
		Names:      []string{"edge-a", "edge-b"},
	}
	if err := store.WriteSnapshot(0, kindServerSnap, encodeServerState(base)); err != nil {
		t.Fatal(err)
	}
	append_ := func(kind uint16, payload []byte) {
		t.Helper()
		if err := store.Append(kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Round 0 committed with one of two relays reporting: Participants
	// carries the client count (1 here), which must NOT feed the
	// partial-round counter on the root tier.
	append_(kindWALGlobal, encodeWALGlobal(&GlobalMsg{Round: 0, Participants: 1, Payload: []float64{1, 2}}))

	st, err := recoverState(store, true)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("no state recovered")
	}
	if len(st.History) != 1 || st.History[0].Round != 0 {
		t.Fatalf("recovered history %+v, want exactly the committed round 0", st.History)
	}
	if st.PartialRounds != 0 {
		t.Fatalf("partialRounds = %d, want 0 (root tier disables the re-derivation)", st.PartialRounds)
	}
}

// requireCommitsOnly asserts that the WAL recovery would replay from a
// checkpoint directory holds exactly n records, all of them commits.
func requireCommitsOnly(t *testing.T, when, dir string, n int) {
	t.Helper()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	_, _, _, wal, _, err := store.Load()
	if err != nil || len(wal) != n {
		t.Fatalf("%s: WAL holds %d records (err %v), want %d commits", when, len(wal), err, n)
	}
	for _, rec := range wal {
		if rec.Kind != kindWALGlobal {
			t.Fatalf("%s: WAL holds a record of kind %d, want only commits (%d)", when, rec.Kind, kindWALGlobal)
		}
	}
}

// TestKillRestartWALHoldsOnlyCommits kills a durable coordinator after it
// accepted k < n updates of a round and inspects what it left on disk: the
// WAL holds commit records only — one per round a peer has observed
// (commit before broadcast), nothing for the open round — and the
// restarted coordinator, fed the peers' idempotent re-sends, finishes
// bit-identical to a twin that was never killed.
func TestKillRestartWALHoldsOnlyCommits(t *testing.T) {
	const clients, rounds = 2, 3
	init := []float64{1, 2, 3}
	update := func(c, r int) *UpdateMsg {
		return &UpdateMsg{Round: r, Weight: float64(c + 1),
			Payload: []float64{float64(r) + 0.5*float64(c), -float64(c + 1), 1 / float64(r+c+3)}}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := func(ctx context.Context, dir string, reg *telemetry.Registry) (*Server, chan []float64) {
		t.Helper()
		srv, err := NewServer(ServerConfig{
			Addr: "127.0.0.1:0", NumClients: clients, Rounds: rounds, Init: init,
			RoundDeadline: 30 * time.Second, MinClients: clients,
			CheckpointDir: dir, SnapshotEvery: rounds + 1, // every commit stays in the WAL
			Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		final := make(chan []float64, 1)
		go func() {
			g, _ := srv.Run(ctx)
			final <- g // nil when the run was killed
		}()
		return srv, final
	}
	join := func(srv *Server, haveRound int) [clients]*rawPeer {
		t.Helper()
		var peers [clients]*rawPeer
		for c := range peers {
			p := dialRaw(t, srv.Addr().String())
			t.Cleanup(func() { p.conn.Close() })
			peers[c] = p
			key := fmt.Sprintf("peer-%d", c)
			p.send(&JoinMsg{Name: key, SessionKey: key, HaveRound: haveRound})
			if w := p.welcome(); w.Round != haveRound+1 || len(w.Missed) != 0 {
				t.Fatalf("peer %d welcomed at round %d with %d missed, want round %d and none",
					c, w.Round, len(w.Missed), haveRound+1)
			}
		}
		return peers
	}
	playRound := func(peers [clients]*rawPeer, r int) {
		t.Helper()
		for c, p := range peers {
			p.send(update(c, r))
		}
		for c, p := range peers {
			if g := p.global(); g.Round != r {
				t.Fatalf("peer %d got round %d, want %d", c, g.Round, r)
			}
		}
	}
	// The twin that is never killed.
	twin, twinFinal := start(ctx, "", nil)
	peers := join(twin, -1)
	for r := 0; r < rounds; r++ {
		playRound(peers, r)
	}
	want := <-twinFinal
	if want == nil {
		t.Fatal("twin run failed")
	}

	// The killed arm: round 0 completes, round 1 accepts one of two updates.
	dir := t.TempDir()
	reg := telemetry.New()
	killCtx, kill := context.WithCancel(ctx)
	defer kill()
	srv1, killed := start(killCtx, dir, reg)
	peers = join(srv1, -1)
	playRound(peers, 0)
	requireCommitsOnly(t, "round 0 observed by both peers", dir, 1)
	peers[0].send(update(0, 1))
	for counterValue(reg, "apf_updates_total", "result", "accepted") < clients+1 && ctx.Err() == nil {
		time.Sleep(time.Millisecond) // until the server has accepted it
	}
	kill()
	if g := <-killed; g != nil {
		t.Fatal("server 1 finished the run; the kill never landed")
	}
	requireCommitsOnly(t, "killed with 1 of 2 round-1 updates accepted", dir, 1)

	// Restart on the same directory: round 1 re-opens empty, both peers
	// resume at their applied round and (re-)send.
	srv2, recovered := start(ctx, dir, nil)
	if !srv2.Recovered() || srv2.StartRound() != 1 {
		t.Fatalf("restart: recovered=%v start round %d, want recovered at round 1", srv2.Recovered(), srv2.StartRound())
	}
	peers = join(srv2, 0)
	for r := 1; r < rounds; r++ {
		playRound(peers, r)
	}
	requireSameModel(t, "recovered vs unkilled twin", <-recovered, want)
	requireCommitsOnly(t, "run complete", dir, rounds)
}

// TestRestartAfterCompletionReturnsFinalModel restarts a durable server
// whose run already finished: it must come back with the full history and
// return the final global bit-exactly, without waiting for any client.
func TestRestartAfterCompletionReturnsFinalModel(t *testing.T) {
	const clients, rounds = 2, 6
	dir := t.TempDir()
	ds := data.SynthImages(data.ImageConfig{Classes: 3, Channels: 1, Size: 6, Samples: 60, NoiseStd: 0.5, Seed: 5})
	parts := data.PartitionIID(stats.SplitRNG(5, 50), ds.Len(), clients)
	initNet := tinyModel(stats.SplitRNG(5, 99))
	init := nn.FlattenParams(initNet.Params(), nil)

	srv, err := NewServer(ServerConfig{
		Addr:          "127.0.0.1:0",
		NumClients:    clients,
		Rounds:        rounds,
		Init:          init,
		CheckpointDir: dir,
		SnapshotEvery: 4, // the tail rounds live only in the WAL
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var firstGlobal []float64
	serverErr := make(chan error, 1)
	go func() {
		g, err := srv.Run(ctx)
		firstGlobal = g
		serverErr <- err
	}()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunClient(ctx, ClientConfig{
				Addr: srv.Addr().String(), Name: "c", SessionKey: fmt.Sprintf("c%d", i),
				Model: tinyModel, Optimizer: tinySGD,
				Manager: func(clientID, dim int) fl.SyncManager { return fl.NewPassthroughManager(4) },
				Data:    ds, Indices: parts[i], LocalIters: 2, BatchSize: 10, Seed: 5,
			})
		}(i)
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

	srv2, err := NewServer(ServerConfig{
		Addr:          "127.0.0.1:0",
		NumClients:    clients,
		Rounds:        rounds,
		Init:          init,
		CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv2.StartRound() != rounds {
		t.Fatalf("restarted StartRound = %d, want %d", srv2.StartRound(), rounds)
	}
	second, err := srv2.Run(ctx)
	if err != nil {
		t.Fatalf("restarted server: %v", err)
	}
	if len(second) != len(firstGlobal) {
		t.Fatalf("restarted global dim %d, want %d", len(second), len(firstGlobal))
	}
	for j := range firstGlobal {
		if second[j] != firstGlobal[j] {
			t.Fatalf("restarted global differs at scalar %d: %v vs %v", j, second[j], firstGlobal[j])
		}
	}
	// A restart under a different geometry must be refused outright.
	if _, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: clients + 1, Rounds: rounds, Init: init,
		CheckpointDir: dir,
	}); err == nil {
		t.Fatal("restart with a different cluster size accepted")
	}
}

// TestRecoverFromGenerationZeroCheckpoint covers the crash window between
// the base snapshot (written when registration completes) and round 0's
// commit record: the restarted server holds a generation-0 checkpoint
// with an empty history, must NOT try to re-write the base snapshot (the
// store would refuse a same-generation write and brick recovery), and
// must run the whole training to the same final weights as an
// uninterrupted cluster.
func TestRecoverFromGenerationZeroCheckpoint(t *testing.T) {
	const clients, rounds = 2, 5
	ds := data.SynthImages(data.ImageConfig{Classes: 3, Channels: 1, Size: 6, Samples: 60, NoiseStd: 0.5, Seed: 5})
	parts := data.PartitionIID(stats.SplitRNG(5, 50), ds.Len(), clients)
	initNet := tinyModel(stats.SplitRNG(5, 99))
	init := nn.FlattenParams(initNet.Params(), nil)

	runArm := func(name, dir string) []float64 {
		srv, err := NewServer(ServerConfig{
			Addr:          "127.0.0.1:0",
			NumClients:    clients,
			Rounds:        rounds,
			Init:          init,
			RoundDeadline: 5 * time.Second,
			MinClients:    clients, // never aggregate partially: keep both arms deterministic
			CheckpointDir: dir,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if srv.StartRound() != 0 {
			t.Fatalf("%s: StartRound = %d, want 0", name, srv.StartRound())
		}
		// Only the arm handed the pre-populated store may report recovery.
		if srv.Recovered() != (dir != "") {
			t.Fatalf("%s: Recovered = %v with dir %q", name, srv.Recovered(), dir)
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
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = RunClient(ctx, ClientConfig{
					Addr: srv.Addr().String(), Name: fmt.Sprintf("c%d", i), SessionKey: fmt.Sprintf("c%d", i),
					Model: tinyModel, Optimizer: tinySGD,
					Manager: func(clientID, dim int) fl.SyncManager { return fl.NewPassthroughManager(4) },
					Data:    ds, Indices: parts[i], LocalIters: 2, BatchSize: 10, Seed: 5,
				})
			}(i)
			time.Sleep(100 * time.Millisecond) // registration order = shard order
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: client %d: %v", name, i, err)
			}
		}
		if err := <-serverErr; err != nil {
			t.Fatalf("%s: server: %v", name, err)
		}
		return results[0].FinalModel
	}

	clean := runArm("clean", "")

	// Hand-build exactly what a kill -9 inside round 0 leaves behind: the
	// base snapshot at generation 0 and an empty WAL.
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := &serverState{
		NumClients: clients,
		Rounds:     rounds,
		Init:       init,
		Keys:       []string{"c0", "c1"},
		Names:      []string{"c0", "c1"},
	}
	if err := store.WriteSnapshot(0, kindServerSnap, encodeServerState(base)); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := runArm("recovered", dir)
	if len(recovered) != len(clean) {
		t.Fatalf("model dims differ: %d vs %d", len(recovered), len(clean))
	}
	for j := range clean {
		if recovered[j] != clean[j] {
			t.Fatalf("round-0 recovery diverged at scalar %d: %v vs %v", j, recovered[j], clean[j])
		}
	}
}

// poisonManager wraps a real APF manager but corrupts every upload:
// non-finite scalars for the first rounds, then 100x-scaled payloads.
// Mask bookkeeping stays delegated, so the poisoned client's mask hash
// agrees with the cluster and only sanitization can catch it.
type poisonManager struct {
	*core.Manager
}

func (p *poisonManager) PrepareUpload(round int, x []float64) ([]float64, float64, int64) {
	contrib, weight, up := p.Manager.PrepareUpload(round, x)
	out := append([]float64(nil), contrib...)
	if round%2 == 0 {
		out[len(out)/2] = math.NaN()
	} else {
		for j := range out {
			out[j] *= 100
		}
	}
	return out, weight, up
}

// TestPoisonedClientQuarantinedTrajectoryUnchanged is the poisoned-update
// acceptance scenario: a cluster of 3 good clients plus one poisoned
// client (NaN and 100x-norm uploads) with sanitization enabled must
// quarantine the attacker and produce the bit-identical trajectory to an
// in-process simulator run over only the good clients.
func TestPoisonedClientQuarantinedTrajectoryUnchanged(t *testing.T) {
	const (
		seed    = 61
		good    = 3
		clients = good + 1
		rounds  = 8
		iters   = 3
		batch   = 10
	)
	ds := data.SynthImages(data.ImageConfig{
		Classes: 3, Channels: 1, Size: 6, Samples: 120, NoiseStd: 0.5, Seed: seed,
	})
	parts := data.PartitionIID(stats.SplitRNG(seed, 50), ds.Len(), clients)
	newAPF := func(dim int) *core.Manager {
		return core.NewManager(core.Config{
			Dim: dim, CheckEveryRounds: 2, Threshold: 0.3, EMAAlpha: 0.85, Seed: seed,
		})
	}

	// Reference arm: the simulator over only the good clients' shards.
	// Client ids and RNG streams line up with TCP clients 0..good-1.
	engine := fl.New(fl.Config{
		Rounds: rounds, LocalIters: iters, BatchSize: batch, Seed: seed,
	}, tinyModel, tinySGD,
		func(clientID, dim int) fl.SyncManager { return newAPF(dim) },
		ds, parts[:good], nil)
	engine.Run()
	simGlobal := engine.Global()

	initNet := tinyModel(stats.SplitRNG(seed, 1_000_000))
	init := nn.FlattenParams(initNet.Params(), nil)
	srv, err := NewServer(ServerConfig{
		Addr:          "127.0.0.1:0",
		NumClients:    clients,
		Rounds:        rounds,
		Init:          init,
		RoundDeadline: 700 * time.Millisecond,
		MinClients:    good,
		Validator:     &ValidatorConfig{MaxNormMult: 10, StrikeLimit: 3},
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
		mf := func(clientID, dim int) fl.SyncManager { return newAPF(dim) }
		if i == clients-1 {
			mf = func(clientID, dim int) fl.SyncManager {
				return &poisonManager{Manager: newAPF(dim)}
			}
		}
		cfg := ClientConfig{
			Addr: srv.Addr().String(), Name: fmt.Sprintf("p-%d", i), SessionKey: fmt.Sprintf("p-%d", i),
			Model: tinyModel, Optimizer: tinySGD, Manager: mf,
			Data: ds, Indices: parts[i], LocalIters: iters, BatchSize: batch, Seed: seed,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunClient(ctx, cfg)
		}(i)
		time.Sleep(100 * time.Millisecond) // accept order = shard order
	}
	wg.Wait()
	for i := 0; i < good; i++ {
		if errs[i] != nil {
			t.Fatalf("good client %d: %v", i, errs[i])
		}
	}
	if errs[clients-1] != nil {
		t.Fatalf("poisoned client should still complete (it receives aggregates): %v", errs[clients-1])
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("server: %v", err)
	}

	v := srv.Validator()
	if !v.Quarantined(clients - 1) {
		t.Fatalf("poisoned client not quarantined (strikes=%d)", v.Strikes(clients-1))
	}
	for i := 0; i < good; i++ {
		if v.Strikes(i) != 0 {
			t.Fatalf("good client %d charged %d strikes", i, v.Strikes(i))
		}
	}
	// At least the three strike-charging rejections happened; later
	// uploads may instead arrive after their round already closed without
	// the quarantined client (stale, not charged).
	if srv.RejectedUpdates() < 3 {
		t.Fatalf("rejected %d updates, want the 3 striking ones at minimum", srv.RejectedUpdates())
	}
	if srv.PartialRounds() != rounds {
		t.Fatalf("partial rounds = %d, want every round (%d) without the attacker", srv.PartialRounds(), rounds)
	}
	// The good clients' trajectory is bit-identical to the attacker never
	// existing.
	requireMatchesSimulator(t, results[:good], simGlobal)
}

// TestStrictModePoisonAborts checks the strict barrier path: with no
// round deadline a poisoned update is fatal, surfacing the typed
// sanitization error instead of hanging the barrier.
func TestStrictModePoisonAborts(t *testing.T) {
	const clients, rounds = 2, 4
	ds := data.SynthImages(data.ImageConfig{Classes: 3, Channels: 1, Size: 6, Samples: 60, NoiseStd: 0.5, Seed: 5})
	parts := data.PartitionIID(stats.SplitRNG(5, 50), ds.Len(), clients)
	initNet := tinyModel(stats.SplitRNG(5, 99))
	init := nn.FlattenParams(initNet.Params(), nil)

	srv, err := NewServer(ServerConfig{
		Addr:       "127.0.0.1:0",
		NumClients: clients,
		Rounds:     rounds,
		Init:       init,
		Validator:  &ValidatorConfig{MaxNormMult: 10},
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

	newAPF := func(dim int) *core.Manager {
		return core.NewManager(core.Config{
			Dim: dim, CheckEveryRounds: 2, Threshold: 0.3, EMAAlpha: 0.85, Seed: 5,
		})
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		mf := func(clientID, dim int) fl.SyncManager { return newAPF(dim) }
		if i == 1 {
			mf = func(clientID, dim int) fl.SyncManager { return &poisonManager{Manager: newAPF(dim)} }
		}
		cfg := ClientConfig{
			Addr: srv.Addr().String(), Name: fmt.Sprintf("s-%d", i),
			Model: tinyModel, Optimizer: tinySGD, Manager: mf,
			Data: ds, Indices: parts[i], LocalIters: 2, BatchSize: 10, Seed: 5,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = RunClient(ctx, cfg) // fails when the server aborts
		}()
		time.Sleep(50 * time.Millisecond)
	}
	err = <-serverErr
	if !errors.Is(err, ErrNonFiniteUpdate) {
		t.Fatalf("strict server err = %v, want ErrNonFiniteUpdate", err)
	}
	cancel() // release the clients
	wg.Wait()
}
