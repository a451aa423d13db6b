package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"apf/internal/chaos"
	"apf/internal/telemetry"
)

// The relay's upward side under faults. Each fault is driven through
// RelayConfig.Dial and gated on OnRound hooks, never on sleeps.

// errRootDown is what a refusing gate's dial returns once the root is
// gone.
var errRootDown = errors.New("root is down")

// awayCluster is the outcome of runAwayCluster.
type awayCluster struct {
	root    []float64
	relays  [2][]float64
	clients [4]*ClientResult
	// rootReg instruments the root; edgeReg relay edge-b; clientRegs
	// edge-b's two clients.
	rootReg    *telemetry.Registry
	edgeReg    *telemetry.Registry
	clientRegs [2]*telemetry.Registry
}

// runAwayCluster runs a root (round deadline, MinClients 1) over two
// relays with two passthrough clients each. Relay edge-b loses its
// upstream connection once its first client has applied round cutAt, and
// every redial is held until edge-a's first client has applied round
// backAt: the root commits rounds cutAt+1 … backAt without edge-b, which
// then resumes and must bring its clients onto the root's trajectory.
func runAwayCluster(t *testing.T, historyRounds, cutAt, backAt int) *awayCluster {
	t.Helper()
	const rounds = 8
	ds, parts, init := singleSampleSetup(4)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	out := &awayCluster{rootReg: telemetry.New(), edgeReg: telemetry.New(),
		clientRegs: [2]*telemetry.Registry{telemetry.New(), telemetry.New()}}
	gate := chaos.NewGate(ctx)
	relays := make([]RelayConfig, 2)
	for i, name := range []string{"edge-a", "edge-b"} {
		relays[i] = RelayConfig{Name: name, SessionKey: name, NumClients: 2, MaxRetries: 3, Seed: 5}
	}
	relays[1].Dial, relays[1].Metrics = gate.Dial, out.edgeReg

	var cutOnce, backOnce sync.Once
	cfgs := passthroughClients(ds, parts)
	cfgs[0].OnRound = func(round int, _ []float64) {
		if round == backAt {
			backOnce.Do(gate.Open)
		}
	}
	cfgs[2].OnRound = func(round int, _ []float64) {
		if round == cutAt {
			cutOnce.Do(gate.Cut)
		}
	}
	cfgs[2].Metrics, cfgs[3].Metrics = out.clientRegs[0], out.clientRegs[1]
	res, err := RunCluster(ctx, Cluster{
		Root: ServerConfig{
			Rounds: rounds, Init: init, RoundDeadline: 300 * time.Millisecond, MinClients: 1,
			HistoryRounds: historyRounds, Metrics: out.rootReg,
		},
		Relays:  relays,
		Clients: cfgs,
	})
	if err != nil {
		t.Fatal(err)
	}
	out.root = res.Global
	copy(out.relays[:], res.RelayGlobals)
	copy(out.clients[:], res.Clients)
	return out
}

// check requires every tier and every client to end on the root's final
// model, and edge-b to have reconnected.
func (c *awayCluster) check(t *testing.T) {
	t.Helper()
	equal := func(what string, got []float64) {
		if len(got) != len(c.root) {
			t.Fatalf("%s has %d coordinates, the root %d", what, len(got), len(c.root))
		}
		for j := range got {
			if got[j] != c.root[j] {
				t.Fatalf("%s differs from the root's final model at %d: %v vs %v", what, j, got[j], c.root[j])
			}
		}
	}
	for i, g := range c.relays {
		equal(fmt.Sprintf("relay %d final global", i), g)
	}
	for i, res := range c.clients {
		equal(fmt.Sprintf("client %d final model", i), res.FinalModel)
	}
	if got := c.edgeReg.Snapshot()["apf_relay_upstream_reconnects_total"]; got < 1 {
		t.Errorf("edge-b upstream reconnects = %v, want >= 1", got)
	}
}

// TestRelayAdoptsReplayedRounds: a relay away from the root for two
// rounds resumes its session, adopts the globals the root committed
// without it from the resume replay, and re-broadcasts them, so its
// clients end on the root's model.
func TestRelayAdoptsReplayedRounds(t *testing.T) {
	c := runAwayCluster(t, 0, 1, 3)
	c.check(t)
	root := c.rootReg.Snapshot()
	if got := root["apf_partial_rounds_total"]; got < 2 {
		t.Errorf("root committed %v rounds without a relay, want >= 2", got)
	}
	if got := root[`apf_resume_mode_total{mode="replay"}`]; got != 1 {
		t.Errorf("root replay resumes = %v, want 1", got)
	}
	if got := root["apf_replayed_globals_total"]; got < 2 {
		t.Errorf("root replayed %v globals, want >= 2", got)
	}
}

// TestRelaySnapshotJump: with the root's history capped at two rounds, a
// relay away for three falls off it. The root serves the snapshot once,
// the relay commits the round discontinuity, and each of its clients
// applies the snapshot mid-stream and ends on the root's model.
func TestRelaySnapshotJump(t *testing.T) {
	c := runAwayCluster(t, 2, 1, 4)
	c.check(t)
	root := c.rootReg.Snapshot()
	if got := root["apf_partial_rounds_total"]; got < 3 {
		t.Errorf("root committed %v rounds without a relay, want >= 3", got)
	}
	if got := root[`apf_resume_mode_total{mode="snapshot"}`]; got != 1 {
		t.Errorf("root snapshot resumes = %v, want 1", got)
	}
	if got := root[`apf_resume_mode_total{mode="replay"}`]; got != 0 {
		t.Errorf("root replay resumes = %v, want 0", got)
	}
	for i, reg := range c.clientRegs {
		if got := reg.Snapshot()[`apf_client_catchup_total{mode="snapshot"}`]; got != 1 {
			t.Errorf("edge-b client %d applied %v snapshots, want 1", i, got)
		}
	}
}

// TestRelayUpstreamRetryBudget: once the root is gone, the relay spends
// MaxRetries reconnect attempts — one dial each — and returns the last
// connection error wrapped, counting every failed attempt.
func TestRelayUpstreamRetryBudget(t *testing.T) {
	const retries = 2
	ds, parts, init := singleSampleSetup(1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Once round 1 is applied, before the relay pushes round 2, the root
	// becomes unreachable: the gate severs the relay's upstream connection
	// and refuses every redial.
	gate := chaos.NewGate(ctx)
	reg := telemetry.New()
	cfg := passthroughClient("", ds, parts[0])
	cfg.OnRound = func(round int, _ []float64) {
		if round == 1 {
			gate.Refuse(errRootDown)
			gate.Cut()
		}
	}
	res, err := RunCluster(ctx, Cluster{
		Root: ServerConfig{Rounds: 4, Init: init},
		Relays: []RelayConfig{{Name: "edge", SessionKey: "edge", NumClients: 1,
			MaxRetries: retries, Dial: gate.Dial, Metrics: reg}},
		Clients: []ClientConfig{cfg},
	})
	if res == nil {
		t.Fatal(err)
	}
	if res.ClientErrs[0] == nil {
		t.Error("the relay's client finished although the root died mid-run")
	}

	err = res.RelayErrs[0]
	if !errors.Is(err, errRootDown) {
		t.Fatalf("relay error %v, want the dial error wrapped", err)
	}
	if want := fmt.Sprintf("connection failed (after %d reconnect attempt(s))", retries); !strings.Contains(err.Error(), want) {
		t.Errorf("relay error %q, want it to report %q", err, want)
	}
	if got, want := gate.Dials(), 1+retries; got != want {
		t.Errorf("relay dialed %d times, want %d (the join plus one per reconnect attempt)", got, want)
	}
	if got, want := reg.Snapshot()["apf_relay_upstream_reconnects_total"], float64(retries+1); got != want {
		t.Errorf("upstream reconnects = %v, want %v (every failed attempt)", got, want)
	}
}

// TestRelayRefusesNonResumedWelcome: a root that lost the relay's session
// (a restart without a checkpoint) answers its rejoin with a fresh,
// non-resumed welcome of the same geometry. The relay must stop at once
// with a protocol violation — pushing its round to that root would abort
// the root — and must not dial again.
func TestRelayRefusesNonResumedWelcome(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	init := []float64{0.5, -0.25, 2}

	rootLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rootLn.Close()
	pushedAfterFresh := make(chan bool, 1)
	serve := func(attempt int) error {
		conn, err := rootLn.Accept()
		if err != nil {
			return err
		}
		defer conn.Close()
		m, err := readMsg(conn, 10*time.Second, joinPayloadLimit, nil)
		if err != nil {
			return err
		}
		j, ok := m.(*RelayJoinMsg)
		if !ok {
			return fmt.Errorf("expected a relay join, got %s", m.WireKind())
		}
		if want := attempt - 1; j.HaveRound != want {
			return fmt.Errorf("join %d has round %d, want %d", attempt, j.HaveRound, want)
		}
		// Both welcomes are fresh registrations of the same geometry.
		welcome := &WelcomeMsg{ClientID: 0, NumClients: 1, Rounds: 2, Dim: len(init), Init: init}
		if err := writeMsg(conn, 10*time.Second, welcome, nil); err != nil {
			return err
		}
		_, err = readRawFrame(conn)
		if attempt == 1 {
			pushedAfterFresh <- err == nil
			return nil
		}
		if err != nil {
			return err
		}
		if err := writeMsg(conn, 10*time.Second, &GlobalMsg{Round: 0, Payload: []float64{1, 2, 3}, Participants: 1}, nil); err != nil {
			return err
		}
		// Sever with round 1's partial unanswered.
		_, err = readRawFrame(conn)
		return err
	}
	rootErr := make(chan error, 1)
	go func() {
		defer rootLn.Close()
		for attempt := 0; attempt < 2; attempt++ {
			if err := serve(attempt); err != nil {
				rootErr <- fmt.Errorf("scripted root, connection %d: %w", attempt, err)
				return
			}
		}
		rootErr <- nil
	}()

	gate := chaos.NewGate(ctx)
	rel, err := NewRelay(RelayConfig{
		Addr: "127.0.0.1:0", Upstream: rootLn.Addr().String(),
		Name: "edge", SessionKey: "edge", NumClients: 1, MaxRetries: 3, Dial: gate.Dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	relDone := make(chan error, 1)
	go func() {
		_, err := rel.Run(ctx)
		relDone <- err
	}()

	client := dialRaw(t, rel.Addr().String())
	defer client.conn.Close()
	client.send(&JoinMsg{Name: "c"})
	client.welcome()
	client.send(&UpdateMsg{Round: 0, Payload: []float64{0.125, -3, 1}, Weight: 1})
	if g := client.global(); g.Round != 0 {
		t.Fatalf("client got global for round %d, want 0", g.Round)
	}
	client.send(&UpdateMsg{Round: 1, Payload: []float64{0.25, -1, 1}, Weight: 1})

	err = <-relDone
	if !errors.Is(err, errProtocol) {
		t.Errorf("relay error %v, want a protocol violation", err)
	}
	if err := <-rootErr; err != nil {
		t.Fatal(err)
	}
	if <-pushedAfterFresh {
		t.Error("the relay pushed a partial to a root that did not resume its session")
	}
	if got := gate.Dials(); got != 2 {
		t.Errorf("relay dialed %d times, want 2 (no dial after the refused welcome)", got)
	}
}
