// Weak pointers arrived in Go 1.24; older toolchains skip this file.

//go:build go1.24

package transport

import (
	"net"
	"runtime"
	"testing"
	"weak"

	"apf/internal/wire"
)

// TestCommittedFrameNotRetained pins that the server keeps no encoded
// frame past its commit: with HistoryRounds 0 (every round retained in the
// ledger), each committed round's frames — the dense one and a lazily
// built sparse variant — become unreachable as soon as the session queues
// holding them drain. Only the ledger's payloads outlive a round.
func TestCommittedFrameNotRetained(t *testing.T) {
	srv := newFanoutServer(t)
	var sessions []*session
	for id, codec := range []wire.Codec{wire.CodecDense, wire.CodecSparseQ16} {
		server, peer := net.Pipe()
		t.Cleanup(func() { closeQuietly(server); closeQuietly(peer) })
		sess := newSession(id, "", "queue-only")
		sess.conn, sess.gen, sess.codec = srv.track(server), 1, codec
		sessions = append(sessions, sess)
	}
	srv.sessions = sessions

	kinds := []wire.Kind{wire.KindGlobal, wire.KindSparseGlobal}
	var frames []weak.Pointer[byte]
	for r := 0; r < 3; r++ {
		g := &GlobalMsg{Round: r, Participants: 2, Payload: fanoutPayload(r)}
		if err := srv.commitRound(g, roundMeta{maskHash: 0xfeed, maskGen: 1}, false); err != nil {
			t.Fatal(err)
		}
		for i, sess := range sessions {
			sess.mu.Lock()
			if len(sess.queue) != 1 || wire.FrameKind(sess.queue[0]) != kinds[i] {
				t.Fatalf("round %d: session %d queued %d frames, want one %s", r, i, len(sess.queue), kinds[i])
			}
			frames = append(frames, weak.Make(&sess.queue[0][0]))
			sess.queue = nil // the writer's pop
			sess.mu.Unlock()
		}
	}
	runtime.GC()
	for i, f := range frames {
		if f.Value() != nil {
			t.Errorf("round %d's frame for session %d is still reachable after its queue drained", i/2, i%2)
		}
	}
	if got := srv.CommittedRounds(); got != 3 {
		t.Fatalf("committed %d rounds, want 3", got)
	}
}
