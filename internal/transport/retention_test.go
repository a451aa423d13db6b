// Weak pointers arrived in Go 1.24; older toolchains skip this file.

//go:build go1.24

package transport

import (
	"runtime"
	"testing"
	"weak"

	"apf/internal/wire"
)

// TestCommittedFrameNotRetained pins that the server keeps no encoded
// frame past its commit: with HistoryRounds 0 (every round retained in the
// ledger), each committed round's one frame — shared by every session
// queue, sparse only on the rounds with mask evidence — becomes
// unreachable as soon as the queues holding it drain. Only the ledger's
// payloads outlive a round.
func TestCommittedFrameNotRetained(t *testing.T) {
	srv := newFanoutServer(t)
	srv.cfg.Codec = wire.CodecSparseQ16
	sessions := queueSessions(t, srv, 2)

	const rounds = 4
	var frames []weak.Pointer[byte]
	for r := 0; r < rounds; r++ {
		meta, kind := roundMeta{maskGen: -1}, wire.KindGlobal
		if r%2 == 0 {
			meta, kind = roundMeta{maskHash: 0xfeed, maskGen: 1}, wire.KindSparseGlobal
		}
		g := &GlobalMsg{Round: r, Participants: 2, Payload: fanoutPayload(r)}
		if err := srv.commitRound(g, meta, false); err != nil {
			t.Fatal(err)
		}
		frame := sessions[0].queue[0]
		for i, sess := range sessions {
			sess.mu.Lock()
			if len(sess.queue) != 1 || &sess.queue[0][0] != &frame[0] || wire.FrameKind(frame) != kind {
				t.Fatalf("round %d: session %d queued %d frames, want the round's one shared %s frame",
					r, i, len(sess.queue), kind)
			}
			sess.queue = nil // the writer's pop
			sess.mu.Unlock()
		}
		frames = append(frames, weak.Make(&frame[0]))
	}
	runtime.GC()
	for r, f := range frames {
		if f.Value() != nil {
			t.Errorf("round %d's frame is still reachable after its queues drained", r)
		}
	}
	if got := srv.CommittedRounds(); got != rounds {
		t.Fatalf("committed %d rounds, want %d", got, rounds)
	}
}
