package transport

import (
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"apf/internal/checkpoint"
	"apf/internal/telemetry"
	"apf/internal/wire"
)

// rawPeer is a hand-driven wire-framed connection for protocol-violation
// tests: it speaks the framing without any of the client's validation.
type rawPeer struct {
	t    *testing.T
	conn net.Conn
}

// dialRaw opens a raw framed session to the server.
func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return &rawPeer{t: t, conn: conn}
}

func (p *rawPeer) send(m wire.Msg) {
	p.t.Helper()
	if err := writeMsg(p.conn, 5*time.Second, m, nil); err != nil {
		p.t.Fatal(err)
	}
}

func (p *rawPeer) recv() wire.Msg {
	p.t.Helper()
	m, err := readMsg(p.conn, 5*time.Second, checkpoint.MaxPayload, nil)
	if err != nil {
		p.t.Fatal(err)
	}
	return m
}

func (p *rawPeer) welcome() *WelcomeMsg {
	p.t.Helper()
	w, ok := p.recv().(*WelcomeMsg)
	if !ok {
		p.t.Fatal("expected a welcome frame")
	}
	return w
}

func (p *rawPeer) global() *GlobalMsg {
	p.t.Helper()
	g, ok := p.recv().(*GlobalMsg)
	if !ok {
		p.t.Fatal("expected a global frame")
	}
	return g
}

func startServer(t *testing.T, clients, rounds int) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Addr:       "127.0.0.1:0",
		NumClients: clients,
		Rounds:     rounds,
		Init:       []float64{1, 2, 3},
		IOTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestServerSurvivesClientCrashMidRound(t *testing.T) {
	srv := startServer(t, 1, 3)
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()

	peer := dialRaw(t, srv.Addr().String())
	peer.send(&JoinMsg{Name: "crasher"})
	peer.welcome()
	// Complete round 0 then vanish.
	peer.send(&UpdateMsg{Round: 0, Payload: []float64{1, 2, 3}, Weight: 1})
	peer.global()
	peer.conn.Close()

	select {
	case err := <-done:
		if err == nil {
			t.Error("server returned nil error after client crash")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server hung after client crash")
	}
}

func TestServerRejectsWrongRound(t *testing.T) {
	srv := startServer(t, 1, 2)
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()

	peer := dialRaw(t, srv.Addr().String())
	defer peer.conn.Close()
	peer.send(&JoinMsg{Name: "skewed"})
	peer.welcome()
	// Claim to be at round 7 during round 0.
	peer.send(&UpdateMsg{Round: 7, Payload: []float64{1, 2, 3}, Weight: 1})
	select {
	case err := <-done:
		if !errors.Is(err, errProtocol) {
			t.Errorf("expected protocol violation, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server hung on wrong-round update")
	}
}

func TestServerRejectsMismatchedPayloadLengths(t *testing.T) {
	srv := startServer(t, 2, 1)
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()

	var peers []*rawPeer
	for i := 0; i < 2; i++ {
		peer := dialRaw(t, srv.Addr().String())
		defer peer.conn.Close()
		peer.send(&JoinMsg{Name: "c"})
		peers = append(peers, peer)
	}
	for _, peer := range peers {
		peer.welcome()
	}
	// Client 0 sends 3 scalars, client 1 only 2.
	peers[0].send(&UpdateMsg{Round: 0, Payload: []float64{1, 2, 3}, Weight: 1})
	peers[1].send(&UpdateMsg{Round: 0, Payload: []float64{1, 2}, Weight: 1})
	select {
	case err := <-done:
		if !errors.Is(err, errProtocol) {
			t.Errorf("expected protocol violation, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server hung on mismatched payloads")
	}
}

// strayThenJoin runs a one-client, one-round strict-barrier server under a
// 200 ms I/O timeout, opens a stray connection that stray drives and waits
// until the server has closed it, then registers a real raw peer. The
// stray never becomes a session, so it must not decide the run: the peer's
// round commits and Run returns nil. It returns the server's registry.
func strayThenJoin(t *testing.T, stray func(net.Conn)) *telemetry.Registry {
	t.Helper()
	reg := telemetry.New()
	srv, err := NewServer(ServerConfig{
		Addr:       "127.0.0.1:0",
		NumClients: 1,
		Rounds:     1,
		Init:       []float64{1, 2, 3},
		IOTimeout:  200 * time.Millisecond,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		done <- err
	}()

	conn, err := net.DialTimeout("tcp", srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stray(conn)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept the stray connection open past its I/O timeout")
	}

	// Join and update back to back: the server's reads then never wait on
	// this peer, whatever the scheduler does under the short I/O timeout.
	peer := dialRaw(t, srv.Addr().String())
	defer peer.conn.Close()
	peer.send(&JoinMsg{Name: "real"})
	peer.send(&UpdateMsg{Round: 0, Payload: []float64{1, 2, 3}, Weight: 1})
	if w := peer.welcome(); w.ClientID != 0 {
		t.Fatalf("real peer welcomed as client %d, want 0", w.ClientID)
	}
	if g := peer.global(); g.Round != 0 {
		t.Fatalf("real peer got round %d, want 0", g.Round)
	}
	if err := <-done; err != nil {
		t.Fatalf("a connection that never joined ended the run: %v", err)
	}
	return reg
}

// TestServerRejectsMalformedFrame feeds the registration path raw garbage:
// the decode failure is refused and counted as one corrupt frame, and the
// strict-barrier run goes on to register the real peer.
func TestServerRejectsMalformedFrame(t *testing.T) {
	reg := strayThenJoin(t, func(conn net.Conn) {
		if _, err := conn.Write([]byte("this is not a frame, not even close")); err != nil {
			t.Fatal(err)
		}
	})
	if n := counterValue(reg, "apf_wire_errors_total", "type", "corrupt"); n != 1 {
		t.Errorf("apf_wire_errors_total{type=\"corrupt\"} = %d, want 1", n)
	}
}

// TestServerRegistrationTimesOut opens a connection that never sends its
// join: the server's read deadline refuses it, and the strict-barrier run
// goes on to register the real peer.
func TestServerRegistrationTimesOut(t *testing.T) {
	strayThenJoin(t, func(net.Conn) {})
}

func TestServerContextCancelDuringRegistration(t *testing.T) {
	srv := startServer(t, 2, 1) // second client never arrives
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("expected context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not honour cancellation")
	}
}

// TestFlushWaitsOutInflightAfterDetach pins the shutdown accounting race
// the relay tier made routine: a peer that reads the final aggregate and
// closes immediately can EOF-detach the session (conn = nil) in the gap
// between the writer's write succeeding and it clearing inflight. flush
// must wait out that in-flight frame — judged at detach time it would be
// miscounted as undelivered and fail a strict-mode run that actually
// delivered everything. A frame still queued at detach, by contrast, was
// genuinely never written and must keep failing the run.
func TestFlushWaitsOutInflightAfterDetach(t *testing.T) {
	t.Parallel()
	s := &Server{}
	s.ledger.commit(&GlobalMsg{Round: 0})

	// Delivered-but-unbookkept: conn gone, inflight still set; the writer
	// clears it a moment later, as after a successful write.
	sess := newSession(0, "k", "peer")
	sess.sent = 1
	sess.inflight = true
	s.sessions = []*session{sess}
	go func() {
		time.Sleep(20 * time.Millisecond)
		sess.mu.Lock()
		sess.inflight = false
		sess.cond.Broadcast()
		sess.mu.Unlock()
	}()
	if err := s.flush(context.Background()); err != nil {
		t.Errorf("flush failed on a delivered in-flight frame: %v", err)
	}

	// Genuinely undelivered: a frame the writer never started.
	stuck := newSession(1, "k2", "peer2")
	stuck.sent = 1
	stuck.queue = [][]byte{{0}}
	s.sessions = []*session{stuck}
	if err := s.flush(context.Background()); err == nil {
		t.Error("flush forgave a frame that was never written")
	}
}

// TestServerRefusesDenseUpdatePastModel: a dense update longer than the
// model (12 scalars on an 8-scalar one, inside the frame limit's slack) is
// its sender's protocol violation, refused by the reader before it reaches
// the round. Stored first, it would fix the round's length and get the
// honest update after it refused in its place: the strict run would abort
// naming the honest client, the fault-tolerant one commit the intruder's.
func TestServerRefusesDenseUpdatePastModel(t *testing.T) {
	init := make([]float64, 8)
	long := &UpdateMsg{Round: 0, Weight: 1, Payload: make([]float64, len(init)+4)}
	honest := &UpdateMsg{Round: 0, Weight: 1, Payload: []float64{1, 2, 3, 4, 5, 6, 7, 8}}
	for _, deadline := range []time.Duration{0, 300 * time.Millisecond} {
		reg := telemetry.New()
		srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", NumClients: 2, Rounds: 1, Init: init,
			IOTimeout: 2 * time.Second, RoundDeadline: deadline, MinClients: 1, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		done := make(chan error, 1)
		go func() {
			_, err := srv.Run(ctx)
			done <- err
		}()
		peers := make([]*rawPeer, 2)
		for i := range peers {
			peers[i] = dialRaw(t, srv.Addr().String())
			peers[i].send(&JoinMsg{Name: "c"})
			peers[i].welcome()
		}
		peers[0].send(long)
		// Hold the honest update until the server has dealt with the long
		// one: stored it, or closed its sender (then a strict server stops,
		// and the honest write may fail).
		for wait := time.Now().Add(5 * time.Second); reg.Snapshot()["apf_updates_received_total"] == 0; {
			_ = peers[0].conn.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
			if _, err := peers[0].conn.Read(make([]byte, 1)); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
				break
			}
			if time.Now().After(wait) {
				t.Fatal("the server neither stored the long update nor closed its sender")
			}
		}
		_ = writeMsg(peers[1].conn, 5*time.Second, honest, nil)
		err = <-done
		cancel()
		if deadline == 0 {
			if !errors.Is(err, errProtocol) || !strings.Contains(err.Error(), "client 0 update carries 12 scalars, model has 8") {
				t.Errorf("strict: Run = %v, want a protocol error naming client 0's 12 scalars", err)
			}
		} else {
			if err != nil {
				t.Errorf("fault-tolerant: Run = %v", err)
			}
			g, ok := peers[1].recv().(*GlobalMsg)
			if !ok || g.Participants != 1 || !sameBits(g.Payload, honest.Payload) {
				t.Errorf("fault-tolerant: honest client got %+v, want the honest update alone", g)
			}
		}
		for _, p := range peers {
			p.conn.Close()
		}
	}
}
