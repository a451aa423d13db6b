package transport

import (
	"context"
	"net"
	"testing"
	"time"

	"apf/internal/chaos"
	"apf/internal/checkpoint"
	"apf/internal/telemetry"
	"apf/internal/wire"
)

// TestRoundFramesEncodeOnce is the structural form of "broadcast encode
// cost stays flat as clients grow": commitRound encodes each round once,
// into one frame that every session queue shares — the same backing
// array, however many sessions — in the cluster's codec. The frame is
// sparse only when the codec is sparse and the round carries mask
// evidence; it is dense without that evidence, and always dense on the
// root tier, whose relays read dense globals.
func TestRoundFramesEncodeOnce(t *testing.T) {
	evidence := roundMeta{maskHash: 0xfeed, maskGen: 2}
	for _, tt := range []struct {
		name  string
		codec wire.Codec
		root  bool
		meta  roundMeta
		want  wire.Kind
	}{
		{"dense", wire.CodecDense, false, evidence, wire.KindGlobal},
		{"sparse", wire.CodecSparse, false, evidence, wire.KindSparseGlobal},
		{"sparse-q16", wire.CodecSparseQ16, false, evidence, wire.KindSparseGlobal},
		{"sparse-without-mask-evidence", wire.CodecSparse, false, roundMeta{maskGen: -1}, wire.KindGlobal},
		{"sparse-q16-root", wire.CodecSparseQ16, true, evidence, wire.KindGlobal},
	} {
		t.Run(tt.name, func(t *testing.T) {
			srv := newFanoutServer(t)
			srv.cfg.Codec = tt.codec
			if tt.root {
				srv.cfg.Relays = 2
			}
			sessions := queueSessions(t, srv, 16)
			g := &GlobalMsg{Round: 0, Participants: 3, Payload: fanoutPayload(0)}
			if err := srv.commitRound(g, tt.meta, false); err != nil {
				t.Fatal(err)
			}
			frame := sessions[0].queue[0]
			for i, sess := range sessions {
				if len(sess.queue) != 1 {
					t.Fatalf("session %d queued %d frames, want 1", i, len(sess.queue))
				}
				if f := sess.queue[0]; &f[0] != &frame[0] || len(f) != len(frame) {
					t.Fatalf("session %d queued its own frame, want the one shared encoding", i)
				}
			}
			if k := wire.FrameKind(frame); k != tt.want {
				t.Fatalf("round framed as %s, want %s", k, tt.want)
			}
			m, _, err := wire.Decode(frame, 0)
			if err != nil {
				t.Fatal(err)
			}
			if sg, ok := m.(*SparseGlobalMsg); ok {
				if sg.Enc != tt.codec.Enc() || sg.MaskHash != tt.meta.maskHash || sg.Dim != len(srv.cfg.Init) {
					t.Errorf("sparse frame %+v, want encoding %s, mask hash %x, dim %d",
						sg, tt.codec.Enc(), tt.meta.maskHash, len(srv.cfg.Init))
				}
			} else if dg := m.(*GlobalMsg); !sameBits(dg.Payload, g.Payload) {
				t.Errorf("dense frame payload %v, want %v", dg.Payload, g.Payload)
			}
		})
	}
}

// TestBroadcastNoHeadOfLineBlocking pins the encode-once/fan-out broadcast
// property: a client whose connection stalls must not delay the other
// clients' GlobalMsg delivery. A chaos fault delays one server→client
// write to client 0 by well over a second while partial aggregation (a
// short round deadline with MinClients=2) lets the round loop keep
// committing without it — so the only way the fast clients can observe
// the stall is if broadcast serializes their deliveries behind client 0's
// blocked write. The old broadcast loop did exactly that (one blocking
// write per session, in session order); per-session writer goroutines
// must not.
func TestBroadcastNoHeadOfLineBlocking(t *testing.T) {
	const (
		clients    = 3
		rounds     = 6
		slowRound  = 2
		writeDelay = 1500 * time.Millisecond
		deadline   = 400 * time.Millisecond
		// fastBound is generous against CI jitter (the fast clients' real
		// gaps track the round deadline) yet far below writeDelay, so the
		// assertion only discriminates blocked-behind-the-stalled-peer
		// delivery from concurrent delivery.
		fastBound = 1 * time.Second
	)

	// The launcher starts client i+1 once client i holds its Welcome, so
	// client i is the i-th accepted connection: "accept:0" is client 0.
	// Deliveries are asynchronous, so the delay armed at round slowRound's
	// mark bites whichever write to client 0 comes first afterwards — the
	// tail of the previous aggregate or round slowRound's; either way only
	// client 0's stream may stall.
	script := chaos.NewScript(11, chaos.Fault{
		Peer: "accept:0", Round: slowRound, Kind: chaos.Delay, Op: chaos.OnWrite, Delay: writeDelay,
	})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// applied[i][r] is when client i finished applying round r.
	applied := make([][]time.Time, clients)
	results, srv, _ := runClusterWith(t, ServerConfig{
		Listener:      script.Listener(inner),
		NumClients:    clients,
		Rounds:        rounds,
		IOTimeout:     10 * time.Second,
		RoundDeadline: deadline,
		MinClients:    clients - 1,
	}, apfChaosFactory, func(i int, cfg *ClientConfig) {
		applied[i] = make([]time.Time, rounds)
		cfg.OnRound = func(round int, model []float64) {
			applied[i][round] = time.Now()
		}
	})
	for i, res := range results {
		if res.Rounds != rounds {
			t.Fatalf("client %d finished %d of %d rounds", i, res.Rounds, rounds)
		}
	}

	maxGap := func(i int) time.Duration {
		var max time.Duration
		for r := 1; r < rounds; r++ {
			if gap := applied[i][r].Sub(applied[i][r-1]); gap > max {
				max = gap
			}
		}
		return max
	}
	// The stalled client really stalled for the full injected delay…
	if gap := maxGap(0); gap < writeDelay {
		t.Fatalf("chaos delay did not bite: client 0's largest inter-round gap is %v", gap)
	}
	// …and the round loop kept committing without it (otherwise the
	// deadline never fired and the barrier — not broadcast — paced
	// everyone, which is not the property under test).
	if srv.PartialRounds() == 0 {
		t.Fatal("expected at least one partial round while client 0 was stalled")
	}
	// The fast clients' deliveries must never ride behind the stalled one.
	for i := 1; i < clients; i++ {
		if gap := maxGap(i); gap >= fastBound {
			t.Errorf("head-of-line blocking: client %d's largest inter-round gap is %v (stalled peer delay %v)",
				i, gap, writeDelay)
		}
	}
}

// TestSilentConnectionDoesNotDelayJoin pins that the accept loop does no
// I/O: two connections that never send their join, held open under a
// 10 s I/O timeout, must not hold up a fresh registration or the resume
// of a registered session. Each Welcome must arrive within a 2 s read
// deadline; the run then completes without waiting out any timer. Only
// the resume counts as one, and Run's teardown closes and uncounts the
// silent connections.
func TestSilentConnectionDoesNotDelayJoin(t *testing.T) {
	reg := telemetry.New()
	srv, err := NewServer(ServerConfig{
		Addr:          "127.0.0.1:0",
		NumClients:    1,
		Rounds:        1,
		Init:          []float64{1, 2, 3},
		IOTimeout:     10 * time.Second,
		RoundDeadline: 5 * time.Second,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		done <- err
	}()
	for i := 0; i < 2; i++ {
		silent, err := net.DialTimeout("tcp", srv.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer silent.Close()
	}

	welcome := func(join *JoinMsg) (*rawPeer, *WelcomeMsg) {
		t.Helper()
		peer := dialRaw(t, srv.Addr().String())
		t.Cleanup(func() { peer.conn.Close() })
		peer.send(join)
		m, err := readMsg(peer.conn, 2*time.Second, checkpoint.MaxPayload, nil)
		if err != nil {
			t.Fatalf("join behind two silent connections: %v", err)
		}
		w, ok := m.(*WelcomeMsg)
		if !ok {
			t.Fatalf("got %s, want a welcome", m.WireKind())
		}
		return peer, w
	}
	if _, w := welcome(&JoinMsg{Name: "p", SessionKey: "p", HaveRound: -1}); w.Resumed {
		t.Fatalf("fresh join welcomed as a resume: %+v", w)
	}
	if n := counterValue(reg, "apf_sessions_resumed_total"); n != 0 {
		t.Fatalf("a registration counted %d resume(s)", n)
	}
	peer, w := welcome(&JoinMsg{Name: "p", SessionKey: "p", HaveRound: -1})
	if !w.Resumed || w.ClientID != 0 {
		t.Fatalf("rejoin welcome %+v, want a resume of session 0", w)
	}
	peer.send(&UpdateMsg{Round: 0, Payload: []float64{1, 2, 3}, Weight: 1})
	peer.global()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	resumed := counterValue(reg, "apf_sessions_resumed_total")
	replayed := counterValue(reg, "apf_resume_mode_total", "mode", "replay")
	if resumed != 1 || replayed != 1 {
		t.Errorf("counted %d resume(s), %d by replay; want the one rejoin", resumed, replayed)
	}
	if n := reg.Gauge("apf_connections_active", "").Value(); n != 0 {
		t.Errorf("apf_connections_active = %v after Run returned, want 0", n)
	}
}
