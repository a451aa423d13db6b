package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"apf/internal/checkpoint"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/nn"
	"apf/internal/stats"
	"apf/internal/telemetry"
	"apf/internal/wire"
)

// singleSampleSetup builds a dataset and per-client single-sample
// partitions. With one sample per client the batcher's shuffle is a no-op,
// so a client's training trajectory depends only on its partition — not on
// the server-assigned client ID, which differs between a flat cluster and
// a relay's local numbering. That isolation is what lets the flat and
// two-tier runs below be compared bitwise.
func singleSampleSetup(clients int) (*data.Dataset, [][]int, []float64) {
	ds := data.SynthImages(data.ImageConfig{Classes: 3, Channels: 1, Size: 6,
		Samples: clients, NoiseStd: 0.5, Seed: 5})
	parts := make([][]int, clients)
	for i := range parts {
		parts[i] = []int{i}
	}
	init := nn.FlattenParams(tinyModel(stats.SplitRNG(5, 99)).Params(), nil)
	return ds, parts, init
}

// passthroughClients is one passthroughClient per partition, for a
// cluster to address.
func passthroughClients(ds *data.Dataset, parts [][]int) []ClientConfig {
	cfgs := make([]ClientConfig, len(parts))
	for i := range parts {
		cfgs[i] = passthroughClient("", ds, parts[i])
	}
	return cfgs
}

// passthroughClient is the single-sample passthrough trainer the two-tier
// tests run against addr.
func passthroughClient(addr string, ds *data.Dataset, part []int) ClientConfig {
	return ClientConfig{
		Addr:       addr,
		Name:       "client",
		Model:      tinyModel,
		Optimizer:  tinySGD,
		Manager:    passthrough,
		Data:       ds,
		Indices:    part,
		LocalIters: 3,
		BatchSize:  1,
		Seed:       5,
	}
}

// TestTwoTierBitExactVsFlat is the topology-refactor acceptance test: the
// same four clients run once against a flat coordinator and once split
// across two real-TCP relays under a root, and every committed artifact —
// root global, both relay globals, and all client models — must match the
// flat run bit for bit. It also pins the two-tier telemetry identity
// (accepted + rejected + stale == received on every engine) and the
// relay-specific handles.
//
// Two arms drive the packed partial frame through a real socket at
// different widths. "small" keeps every sum under 0.5 in magnitude, so
// every block packs at 8 bytes and the upstream leg must cost about half
// of the raw 16 bytes/coordinate. "wide" plants a 2^40 output bias in the
// model: the sums of the tail block need 14 bytes, the frame mixes 8- and
// 14-byte blocks, and the hierarchy must still equal the flat run.
func TestTwoTierBitExactVsFlat(t *testing.T) {
	_, _, init := singleSampleSetup(4)
	small := make([]float64, len(init))
	for j, v := range init {
		small[j] = v / 4
	}
	wide := append([]float64(nil), small...)
	wide[len(wide)-1] = 1 << 40

	const rounds, rawPartial = 4, 16 * 483
	if len(init) != rawPartial/16 {
		t.Fatalf("tinyModel has %d parameters, the byte arithmetic below assumes %d", len(init), rawPartial/16)
	}
	var written [2]int64
	for a, arm := range []struct {
		name string
		init []float64
	}{{"small", small}, {"wide", wide}} {
		t.Run(arm.name, func(t *testing.T) { written[a] = twoTierVsFlat(t, arm.init, rounds) })
	}
	if t.Failed() {
		return
	}
	// Per relay: one join plus `rounds` partial frames went upstream.
	if float64(written[0]) > 0.55*rounds*rawPartial {
		t.Errorf("small arm: %d B upstream per relay, want at most 0.55x of the raw %d B",
			written[0], rounds*rawPartial)
	}
	// The tail block (483 − 256 coordinates) carries the 2^40 bias.
	if floor := int64(rounds * (256*8 + (483-256)*14)); written[1] < floor {
		t.Errorf("wide arm: %d B upstream per relay, want at least %d (a 14-byte tail block per partial)",
			written[1], floor)
	}
}

// twoTierVsFlat runs one arm of TestTwoTierBitExactVsFlat from the given
// initial model and returns the larger of the two relays' upstream byte
// counts.
func twoTierVsFlat(t *testing.T, init []float64, rounds int) int64 {
	const (
		clients  = 4
		perRelay = 2
	)
	ds, parts, _ := singleSampleSetup(clients)

	// Flat reference run.
	flat := runSpec(t, Cluster{
		Root:    ServerConfig{NumClients: clients, Rounds: rounds, Init: init},
		Clients: passthroughClients(ds, parts),
	})
	flatGlobal, flatResults := flat.Global, flat.Clients

	// Two-tier run: root over two relays, two clients each.
	rootReg := telemetry.New()
	relayRegs := [2]*telemetry.Registry{telemetry.New(), telemetry.New()}
	relayCfgs := make([]RelayConfig, 2)
	for i, name := range []string{"edge-a", "edge-b"} {
		relayCfgs[i] = RelayConfig{Name: name, SessionKey: name, NumClients: perRelay, Seed: 5, Metrics: relayRegs[i]}
	}
	tier := runSpec(t, Cluster{
		Root:    ServerConfig{Rounds: rounds, Init: init, Metrics: rootReg},
		Relays:  relayCfgs,
		Clients: passthroughClients(ds, parts),
	})
	rootGlobal, relayGlobals, relays, tierResults := tier.Global, tier.RelayGlobals, tier.Relays, tier.Clients

	// Bit-exactness across the whole hierarchy.
	if len(rootGlobal) != len(flatGlobal) {
		t.Fatalf("root global dim %d, flat %d", len(rootGlobal), len(flatGlobal))
	}
	for j := range flatGlobal {
		if rootGlobal[j] != flatGlobal[j] {
			t.Fatalf("root global differs from flat at %d: %v vs %v", j, rootGlobal[j], flatGlobal[j])
		}
	}
	for i, g := range relayGlobals {
		for j := range flatGlobal {
			if g[j] != flatGlobal[j] {
				t.Fatalf("relay %d global differs from flat at %d", i, j)
			}
		}
	}
	for i, res := range tierResults {
		flat := flatResults[i]
		for j := range flat.FinalModel {
			if res.FinalModel[j] != flat.FinalModel[j] {
				t.Fatalf("relay %d client %d model differs from flat client at %d", i/perRelay, i%perRelay, j)
			}
		}
		if res.Rounds != rounds {
			t.Errorf("relay %d client %d rounds = %d, want %d", i/perRelay, i%perRelay, res.Rounds, rounds)
		}
	}

	// Relay upstream traffic actually happened and was accounted.
	var upstream [2]int64
	for i, rel := range relays {
		read, written := rel.UpstreamBytes()
		if read <= 0 || written <= 0 {
			t.Errorf("relay %d upstream bytes r=%d w=%d, want both > 0", i, read, written)
		}
		upstream[i] = written
	}

	// Engine telemetry identity holds on every tier, and the relay handles
	// carry the expected counts.
	checkIdentity := func(name string, snap map[string]float64, wantAccepted float64) {
		recv := snap["apf_updates_received_total"]
		acc := snap[`apf_updates_total{result="accepted"}`]
		rej := snap[`apf_updates_total{result="rejected"}`]
		stale := snap[`apf_updates_total{result="stale"}`]
		if acc+rej+stale != recv {
			t.Errorf("%s: accepted %v + rejected %v + stale %v != received %v", name, acc, rej, stale, recv)
		}
		if acc != wantAccepted {
			t.Errorf("%s: accepted = %v, want %v", name, acc, wantAccepted)
		}
	}
	checkIdentity("root", rootReg.Snapshot(), float64(2*rounds)) // one partial per relay per round
	for i, reg := range relayRegs {
		snap := reg.Snapshot()
		checkIdentity([]string{"relay 0", "relay 1"}[i], snap, float64(perRelay*rounds))
		if got := snap["apf_relay_partials_total"]; got != float64(rounds) {
			t.Errorf("relay %d partials = %v, want %d", i, got, rounds)
		}
		// Saved bytes and shipped bytes add up to the raw layout: what the
		// relay wrote is its join, the fixed frame fields, and 16·dim minus
		// the saving per partial.
		saved := snap["apf_relay_partial_bytes_saved_total"]
		if saved <= 0 || saved >= float64(rounds*16*len(init)) {
			t.Errorf("relay %d bytes saved = %v, want within (0, %d)", i, saved, rounds*16*len(init))
		}
		if got := snap["apf_relay_sessions"]; got != perRelay {
			t.Errorf("relay %d session gauge = %v, want %d", i, got, perRelay)
		}
		if got := snap["apf_relay_upstream_seconds"]; got != float64(rounds) {
			t.Errorf("relay %d upstream RTT observations = %v, want %d", i, got, rounds)
		}
	}
	return max(upstream[0], upstream[1])
}

// readRawFrame reads one wire frame off conn without decoding it and
// returns its exact bytes.
func readRawFrame(conn net.Conn) ([]byte, error) {
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return nil, err
	}
	hdr := make([]byte, 10)
	if _, err := io.ReadFull(conn, hdr); err != nil {
		return nil, fmt.Errorf("frame header: %w", err)
	}
	rest := make([]byte, int(binary.LittleEndian.Uint32(hdr[6:]))+4)
	if _, err := io.ReadFull(conn, rest); err != nil {
		return nil, fmt.Errorf("frame body: %w", err)
	}
	return append(hdr, rest...), nil
}

// TestRelayResendIsByteIdentical severs the upstream connection after the
// relay pushed its partial and before the root answered. The relay must
// resume its session and push the round again — and because it holds the
// encoded frame rather than re-encoding per attempt, the second push is
// the first one byte for byte. The root here is scripted on a raw socket
// so the test sees the bytes the relay actually wrote.
func TestRelayResendIsByteIdentical(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	init := []float64{0.5, -0.25, 1 << 40}

	rootLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rootLn.Close()
	pushes := make(chan []byte, 2) // one per upstream connection
	serveOnce := func(attempt int) error {
		conn, err := rootLn.Accept()
		if err != nil {
			return err
		}
		defer conn.Close() // attempt 0: sever with the partial unanswered
		m, err := readMsg(conn, 10*time.Second, joinPayloadLimit, nil)
		if err != nil {
			return err
		}
		if _, ok := m.(*RelayJoinMsg); !ok {
			return fmt.Errorf("expected a relay join, got %s", m.WireKind())
		}
		welcome := &WelcomeMsg{ClientID: 0, NumClients: 1, Rounds: 1, Dim: len(init), Init: init, Resumed: attempt > 0}
		if err := writeMsg(conn, 10*time.Second, welcome, nil); err != nil {
			return err
		}
		frame, err := readRawFrame(conn)
		if err != nil {
			return err
		}
		pushes <- frame
		if attempt == 0 {
			return nil
		}
		return writeMsg(conn, 10*time.Second, &GlobalMsg{Round: 0, Payload: []float64{1, 2, 3}, Participants: 1}, nil)
	}
	rootErr := make(chan error, 1)
	go func() {
		for attempt := 0; attempt < 2; attempt++ {
			if err := serveOnce(attempt); err != nil {
				rootErr <- fmt.Errorf("scripted root, connection %d: %w", attempt, err)
				return
			}
		}
		rootErr <- nil
	}()

	rel, err := NewRelay(RelayConfig{
		Addr: "127.0.0.1:0", Upstream: rootLn.Addr().String(),
		Name: "edge", SessionKey: "edge", NumClients: 1,
		MaxRetries: 3,
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
	client.send(&UpdateMsg{Round: 0, Payload: []float64{0.125, -3, 1 << 40}, Weight: 2})
	if g := client.global(); g.Round != 0 || len(g.Payload) != 3 {
		t.Fatalf("client got global %+v", g)
	}
	if err := <-relDone; err != nil {
		t.Fatalf("relay: %v", err)
	}
	if err := <-rootErr; err != nil {
		t.Fatal(err)
	}

	first, second := <-pushes, <-pushes
	if !bytes.Equal(first, second) {
		t.Fatalf("re-sent partial differs from the first push:\n first  %x\n second %x", first, second)
	}
	m, _, err := wire.Decode(first, partialPayloadLimit(len(init)))
	if err != nil {
		t.Fatalf("pushed frame does not decode: %v", err)
	}
	p, ok := m.(*PartialUpdateMsg)
	if !ok || p.Round != 0 || p.Sum.Count != 1 || p.Sum.Dim() != len(init) {
		t.Fatalf("pushed frame decoded to %T %+v", m, m)
	}
}

// TestRelayRefusesForeignCodec: a cluster speaks one codec, and the root
// announces its own to relays too. A sparse-q16 relay under a dense root
// would frame the root's full-precision commits as binary16 while its log
// kept them exact; it refuses the root's Welcome instead — Run returns a
// protocol error before the downward face is built (so before any client
// joins) and spends no upstream retries.
func TestRelayRefusesForeignCodec(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := RunCluster(ctx, Cluster{
		Root: ServerConfig{Rounds: 2, Init: []float64{0, 0, 0}, Metrics: telemetry.New()},
		Relays: []RelayConfig{{Name: "edge", SessionKey: "edge", NumClients: 1,
			Codec: wire.CodecSparseQ16, MaxRetries: 3, Metrics: telemetry.New()}},
	})
	if res == nil {
		t.Fatal(err)
	}
	// The cluster reports the refusal against the relay's tier.
	if !errors.Is(res.RelayErrs[0], errProtocol) {
		t.Fatalf("sparse-q16 relay under a dense root: got %v, want a protocol error", res.RelayErrs[0])
	}
	if errors.Is(res.RootErr, errProtocol) {
		t.Errorf("the root reported the relay's refusal as its own: %v", res.RootErr)
	}
	rel := res.Relays[0]
	if rel.Server() != nil {
		t.Error("the relay built its downward face after refusing the root")
	}
	if n := rel.relayM.reconnects.Value(); n != 0 {
		t.Errorf("the refusal spent %d upstream retries, want none", n)
	}
	if n := res.Root.metrics.connsTotal.Value(); n != 1 {
		t.Errorf("root accepted %d connections, want 1", n)
	}
}

// TestRootRejectsWrongDimPartial: a well-formed, CRC-valid partial whose
// coordinate count is not the model's is a protocol violation raised by
// the connection layer — the typed error aborts the strict run, and the
// partial never reaches the engine's merge.
func TestRootRejectsWrongDimPartial(t *testing.T) {
	root, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Relays: 1, Rounds: 1, Init: []float64{0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := root.Run(context.Background())
		done <- err
	}()
	peer := dialRaw(t, root.Addr().String())
	defer peer.conn.Close()
	peer.send(&RelayJoinMsg{Name: "edge", SessionKey: "edge", HaveRound: -1, Clients: 1})
	peer.welcome()
	peer.send(partialOf(t, 0, 0, [][]float64{{1, 2}}, []float64{1}))
	select {
	case err := <-done:
		if !errors.Is(err, errProtocol) || !strings.Contains(err.Error(), "2 coordinates, model has 3") {
			t.Errorf("wrong-dim partial: got %v, want the coordinate-count protocol violation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("root hung on a wrong-dim partial")
	}
}

// TestRootRejectsPartialPastItsCount: a partial holding a column sum no
// count of admitted clients reaches (the wire decoder's corruption), and a
// partial counting more clients than its relay declared (the connection
// layer's protocol violation), each abort the strict run with a typed
// error before the partial reaches the engine.
func TestRootRejectsPartialPastItsCount(t *testing.T) {
	for _, tc := range []struct {
		name string
		msg  *PartialUpdateMsg
		want error
	}{
		{"sum past count", &PartialUpdateMsg{Sum: fl.Partial{Count: 1, WeightHi: 1, Cols: []uint64{0, 0, 0, 1 << 43, 0, 0}}},
			wire.ErrCorrupt},
		{"count past declared", partialOf(t, 0, 0, [][]float64{{1, 2, 3}, {0, 0, 1}}, []float64{1, 1}), errProtocol},
	} {
		root, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Relays: 1, Rounds: 1, Init: []float64{0, 0, 0}})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := root.Run(context.Background())
			done <- err
		}()
		peer := dialRaw(t, root.Addr().String())
		peer.send(&RelayJoinMsg{Name: "edge", SessionKey: "edge", HaveRound: -1, Clients: 1})
		peer.welcome()
		peer.send(tc.msg)
		select {
		case err := <-done:
			if !errors.Is(err, tc.want) {
				t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: root hung", tc.name)
		}
		peer.conn.Close()
	}
}

// TestRootRefusesDeclarationPastBound: the root refuses a relay join whose
// declared client count takes the relays' sum past fl.MaxContributors — the
// connection is closed without a Welcome and the run goes on — while a
// resuming relay's new declaration replaces its old one rather than adding
// to it, and a cluster-sized config is refused outright.
func TestRootRefusesDeclarationPastBound(t *testing.T) {
	if _, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", NumClients: fl.MaxContributors + 1, Rounds: 1, Init: []float64{0}}); err == nil {
		t.Fatal("NewServer accepted more clients than one round folds")
	}
	root, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Relays: 2, Rounds: 1, Init: []float64{0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := root.Run(ctx)
		done <- err
	}()
	defer func() {
		cancel()
		<-done
	}()
	join := func(key string, clients int) (*rawPeer, error) {
		peer := dialRaw(t, root.Addr().String())
		peer.send(&RelayJoinMsg{Name: key, SessionKey: key, HaveRound: -1, Clients: clients})
		_, err := readMsg(peer.conn, 5*time.Second, checkpoint.MaxPayload, nil)
		return peer, err
	}
	a, err := join("a", fl.MaxContributors)
	if err != nil {
		t.Fatalf("first relay refused: %v", err)
	}
	defer a.conn.Close()
	b, err := join("b", 1)
	b.conn.Close()
	if err == nil {
		t.Fatal("a relay declaring past the bound got a Welcome")
	}
	a2, err := join("a", fl.MaxContributors)
	if err != nil {
		t.Fatalf("a resuming relay's declaration was added to its own: %v", err)
	}
	a2.conn.Close()
	c, err := join("c", 0)
	if err != nil {
		t.Fatalf("a relay declaring within the bound refused: %v", err)
	}
	c.conn.Close()
}

// TestRootRejectsTrimmedReduction pins the documented non-decomposability:
// a trimmed reduction needs every per-client value per coordinate, which a
// pre-aggregated partial sum has already folded away.
func TestRootRejectsTrimmedReduction(t *testing.T) {
	_, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", Relays: 2, Rounds: 1, Init: []float64{0, 0},
		TrimFraction: 0.25,
	})
	if err == nil || !strings.Contains(err.Error(), "does not decompose") {
		t.Fatalf("trimmed reduction on the root tier: err = %v, want non-decomposability rejection", err)
	}
}

// TestRootRejectsValidator pins that inbound sanitization must live on the
// relays, the only tier that sees per-client payloads.
func TestRootRejectsValidator(t *testing.T) {
	_, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", Relays: 2, Rounds: 1, Init: []float64{0, 0},
		Validator: &ValidatorConfig{},
	})
	if err == nil || !strings.Contains(err.Error(), "per-client payloads") {
		t.Fatalf("validator on the root tier: err = %v, want per-client-payload rejection", err)
	}
}

func TestNewRelayValidation(t *testing.T) {
	if _, err := NewRelay(RelayConfig{Upstream: "127.0.0.1:1", NumClients: 0}); err == nil {
		t.Error("NewRelay accepted zero clients")
	}
	if _, err := NewRelay(RelayConfig{NumClients: 2}); err == nil {
		t.Error("NewRelay accepted an empty upstream address")
	}
	if _, err := NewRelay(RelayConfig{Upstream: "127.0.0.1:1", NumClients: 2}); err == nil {
		t.Error("NewRelay accepted an empty session key")
	}
	// What the downward server would refuse, the constructor refuses
	// itself, before the relay joins the root and takes a relay slot.
	bad := map[string]func(*RelayConfig){
		"negative io timeout":     func(c *RelayConfig) { c.IOTimeout = -time.Second },
		"negative round deadline": func(c *RelayConfig) { c.RoundDeadline = -time.Millisecond },
		"negative min clients":    func(c *RelayConfig) { c.MinClients = -1 },
		"negative snapshot every": func(c *RelayConfig) { c.SnapshotEvery = -1 },
		"negative history rounds": func(c *RelayConfig) { c.HistoryRounds = -1 },
		"negative max retries":    func(c *RelayConfig) { c.MaxRetries = -1 },
		"validator size conflict": func(c *RelayConfig) { c.Validator = &ValidatorConfig{Clients: 3} },
	}
	for name, set := range bad {
		cfg := RelayConfig{Addr: "127.0.0.1:0", Upstream: "127.0.0.1:1", SessionKey: "r", NumClients: 2}
		set(&cfg)
		if r, err := NewRelay(cfg); err == nil {
			r.ln.Close()
			t.Errorf("NewRelay accepted a config with %s", name)
		}
	}
}
