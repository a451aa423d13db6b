package transport

import (
	"net"
	"testing"
	"time"

	"apf/internal/checkpoint"
)

// newFanoutServer builds a fault-tolerant single-session server that the
// fan-out tests drive directly — joins, commits and cursors — with no
// round engine and no clock but the I/O deadlines.
func newFanoutServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Addr:          "127.0.0.1:0",
		NumClients:    2,
		Rounds:        8,
		Init:          make([]float64, 4),
		IOTimeout:     5 * time.Second,
		RoundDeadline: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(srv.done) // releases readers posting their connection's end
		closeQuietly(srv.ln)
	})
	return srv
}

// queueSessions attaches n queue-only sessions to srv: each holds one end
// of an in-memory pipe and no writer, so committed frames stay queued for
// the test to inspect.
func queueSessions(t *testing.T, srv *Server, n int) []*session {
	t.Helper()
	for id := 0; id < n; id++ {
		server, peer := net.Pipe()
		t.Cleanup(func() { closeQuietly(server); closeQuietly(peer) })
		sess := newSession(id, "", "queue-only")
		sess.conn, sess.gen = srv.track(server), 1
		srv.sessions = append(srv.sessions, sess)
	}
	return srv.sessions
}

// fanoutPayload is round r's committed aggregate in the fan-out tests.
func fanoutPayload(r int) []float64 {
	return []float64{float64(r) + 0.125, -float64(r), 1.0 / float64(r+3), 7}
}

// joinPipe runs one join over an in-memory connection and returns the
// peer's end with the Welcome it read.
func joinPipe(t *testing.T, srv *Server, join *JoinMsg) (net.Conn, *WelcomeMsg) {
	t.Helper()
	server, peer := net.Pipe()
	t.Cleanup(func() { closeQuietly(peer) })
	cc := srv.track(server)
	srv.spawn(func() { srv.serveConn(cc) })
	if err := writeMsg(peer, 5*time.Second, join, nil); err != nil {
		t.Fatalf("join %q: %v", join.SessionKey, err)
	}
	m, err := readMsg(peer, 5*time.Second, checkpoint.MaxPayload, nil)
	if err != nil {
		t.Fatalf("join %q: %v", join.SessionKey, err)
	}
	w, ok := m.(*WelcomeMsg)
	if !ok {
		t.Fatalf("join %q: got %s, want a welcome", join.SessionKey, m.WireKind())
	}
	return peer, w
}

// readGlobal reads the next aggregate frame on a peer and checks it is g,
// bit for bit.
func readGlobal(t *testing.T, peer net.Conn, g *GlobalMsg) {
	t.Helper()
	m, err := readMsg(peer, 5*time.Second, checkpoint.MaxPayload, nil)
	if err != nil {
		t.Fatalf("read round %d: %v", g.Round, err)
	}
	got, ok := m.(*GlobalMsg)
	if !ok || got.Round != g.Round || !sameBits(got.Payload, g.Payload) {
		t.Fatalf("got %s %+v, want round %d bit for bit", m.WireKind(), m, g.Round)
	}
}

// TestBehindCursorDetachesAndResumes pins the behind-cursor rule: the
// server keeps no frame but the one being committed, so a connection whose
// cursor lags the committed round cannot be served from its queue. It is
// detached — the peer reads no stale frame, the round loop hears of it —
// and resuming brings it current bit for bit through the Welcome's replay,
// after which the sequential stream continues on the new connection.
func TestBehindCursorDetachesAndResumes(t *testing.T) {
	srv := newFanoutServer(t)
	peer, w := joinPipe(t, srv, &JoinMsg{Name: "lagging", SessionKey: "lagging", HaveRound: -1})
	other, _ := joinPipe(t, srv, &JoinMsg{Name: "steady", SessionKey: "steady", HaveRound: -1})
	if w.Resumed || w.ClientID != 0 {
		t.Fatalf("first welcome %+v, want a fresh session 0", w)
	}
	commit := func(r int) *GlobalMsg {
		g := &GlobalMsg{Round: r, Participants: 2, Payload: fanoutPayload(r)}
		if err := srv.commitRound(g, roundMeta{maskGen: -1}, false); err != nil {
			t.Fatal(err)
		}
		return g
	}
	for r := 0; r < 2; r++ {
		g := commit(r)
		readGlobal(t, peer, g)
		readGlobal(t, other, g)
	}

	// The lagging connection's cursor claims it still needs round 1.
	srv.mu.Lock()
	sess := srv.sessions[0]
	srv.mu.Unlock()
	sess.mu.Lock()
	sess.sent = 1
	sess.mu.Unlock()

	g2 := commit(2)
	readGlobal(t, other, g2)
	if m, err := readMsg(peer, 5*time.Second, checkpoint.MaxPayload, nil); err == nil {
		t.Fatalf("a behind-cursor connection was served %s %+v instead of detached", m.WireKind(), m)
	}
	if ev := <-srv.events; ev.err == nil || ev.id != 0 {
		t.Fatalf("event %+v, want the detach of session 0", ev)
	}

	peer, w = joinPipe(t, srv, &JoinMsg{Name: "lagging", SessionKey: "lagging", HaveRound: 1})
	if !w.Resumed || w.ClientID != 0 || w.CatchUp || len(w.Missed) != 1 ||
		w.Missed[0].Round != 2 || !sameBits(w.Missed[0].Payload, g2.Payload) {
		t.Fatalf("resume welcome %+v, want round 2 replayed bit for bit", w)
	}
	g3 := commit(3)
	readGlobal(t, peer, g3)
	readGlobal(t, other, g3)
}
