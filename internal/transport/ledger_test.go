package transport

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"apf/internal/core"
	"apf/internal/wire"
)

// ledgerDim is the model dimension of the ledger tests.
const ledgerDim = 64

// ledgerPayload is round r's committed aggregate: full length, or a compact
// (mask-elided) half-length payload.
func ledgerPayload(r int, compact bool) []float64 {
	n := ledgerDim
	if compact {
		n /= 2
	}
	p := make([]float64, n)
	for j := range p {
		p[j] = math.Sin(float64(r*ledgerDim + j))
	}
	return p
}

// naiveLog is the ledger's specification: every commit since the start or
// the last jump, kept in full, with retention applied only when read.
type naiveLog struct {
	keep  int
	start int // round of all[0]
	all   []GlobalMsg
}

func (n *naiveLog) done() int { return n.start + len(n.all) }

func (n *naiveLog) missed(have int) ([]GlobalMsg, bool) {
	base := n.start
	if n.keep > 0 && len(n.all) > n.keep {
		base = n.done() - n.keep
	}
	if have+1 < base {
		return nil, false
	}
	return n.all[have+1-n.start:], true
}

// dense returns the newest full-length payload and its round (nil, -1:
// none).
func (n *naiveLog) dense() ([]float64, int) {
	for i := len(n.all) - 1; i >= 0; i-- {
		if len(n.all[i].Payload) == ledgerDim {
			return n.all[i].Payload, n.all[i].Round
		}
	}
	return nil, -1
}

// twinReplica is the state a client applying every commit holds — what a
// following follower must capture.
type twinReplica struct {
	mgr *core.Manager
	x   []float64
}

func newTwin() *twinReplica {
	cfg := *resumeShadowConfig()
	cfg.Dim = ledgerDim
	return &twinReplica{mgr: core.NewManager(cfg), x: make([]float64, ledgerDim)}
}

func (tw *twinReplica) apply(g *GlobalMsg) {
	tw.mgr.PostIterate(g.Round, tw.x)
	dense := g.Payload
	if len(dense) != ledgerDim {
		dense = tw.mgr.ExpandDownload(g.Round, dense)
	}
	tw.mgr.ApplyDownload(g.Round, tw.x, dense)
}

// checkLedger compares the ledger with its naive specification: done, the
// missed replay for every cursor, the newest dense payload, and the
// catch-up capture — the twin replica's state when the follower must be
// following (tw non-nil), else the stateless fallback.
func checkLedger(t *testing.T, step string, l *ledger, n *naiveLog, tw *twinReplica) {
	t.Helper()
	if l.done() != n.done() {
		t.Fatalf("%s: done %d, want %d", step, l.done(), n.done())
	}
	for have := -1; have < n.done(); have++ {
		got, ok := l.missed(have)
		want, wok := n.missed(have)
		if ok != wok || len(got) != len(want) {
			t.Fatalf("%s: missed(%d) = %d rounds (ok %v), want %d (ok %v)", step, have, len(got), ok, len(want), wok)
		}
		for i := range want {
			if got[i].Round != want[i].Round || !sameBits(got[i].Payload, want[i].Payload) {
				t.Fatalf("%s: missed(%d)[%d] = round %d, want round %d bit for bit", step, have, i, got[i].Round, want[i].Round)
			}
		}
	}
	init := make([]float64, ledgerDim)
	dense, denseRound := n.dense()
	wantModel := init
	if dense != nil {
		wantModel = dense
	}
	if !sameBits(l.model(init), wantModel) {
		t.Fatalf("%s: model is not the newest dense payload (round %d)", step, denseRound)
	}

	got := l.capture()
	var want *catchupCapture
	switch last := n.done() - 1; {
	case last < 0:
		// nothing committed: nothing to catch up to
	case tw != nil:
		want = &catchupCapture{round: last, gen: tw.mgr.MaskGeneration(), x: tw.x, state: tw.mgr.Snapshot()}
	case dense != nil && denseRound == last:
		want = &catchupCapture{round: last, gen: -1, x: dense}
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: capture %v, want %v", step, got != nil, want != nil)
	}
	if want == nil {
		return
	}
	if got.round != want.round || got.gen != want.gen || !sameBits(got.x, want.x) {
		t.Fatalf("%s: capture round %d gen %d, want round %d gen %d (or model differs)",
			step, got.round, got.gen, want.round, want.gen)
	}
	if (got.state == nil) != (want.state == nil) ||
		want.state != nil && !bytes.Equal(core.EncodeState(got.state), core.EncodeState(want.state)) {
		t.Fatalf("%s: captured manager state differs from the twin replica's", step)
	}
}

// sameBits reports bit-for-bit equality of two payloads.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// newTestLedger builds a ledger with an optional follower.
func newTestLedger(keep int, withShadow bool) *ledger {
	l := &ledger{dim: ledgerDim, keep: keep}
	if withShadow {
		cfg := *resumeShadowConfig()
		cfg.Dim = ledgerDim
		l.follower = core.NewFollower(cfg)
	}
	return l
}

// TestLedgerCommitEviction commits ten rounds at HistoryRounds 0, 1 and 3,
// with and without a shadow (without one, every third payload is compact,
// so the newest dense payload lags), checking the ledger after each.
func TestLedgerCommitEviction(t *testing.T) {
	for _, keep := range []int{0, 1, 3} {
		for _, withShadow := range []bool{false, true} {
			t.Run(fmt.Sprintf("keep=%d/shadow=%v", keep, withShadow), func(t *testing.T) {
				l := newTestLedger(keep, withShadow)
				n := &naiveLog{keep: keep}
				var tw *twinReplica
				if withShadow {
					tw = newTwin()
				}
				checkLedger(t, "empty", l, n, tw)
				for r := 0; r < 10; r++ {
					g := &GlobalMsg{Round: r, Participants: 2, Payload: ledgerPayload(r, !withShadow && r%3 == 2)}
					l.commit(g)
					n.all = append(n.all, *g)
					if tw != nil {
						tw.apply(g)
					}
					checkLedger(t, fmt.Sprintf("commit %d", r), l, n, tw)
					if l.base > 0 && cap(l.history) > keep {
						t.Fatalf("commit %d: history capacity %d pins evicted rounds (keep %d)", r, cap(l.history), keep)
					}
				}
			})
		}
	}
}

// TestLedgerJump commits four rounds, jumps to an upstream snapshot of
// round 8, and commits four more. A snapshot carrying manager state
// restores the follower to the upstream replica; one without it desyncs
// the follower, and captures fall back to the newest dense commit.
func TestLedgerJump(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		withShadow, carryMgr bool
	}{
		{"no shadow", false, false},
		{"shadow restored from the snapshot", true, true},
		{"shadow broken by a stateless snapshot", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const keep = 3
			l := newTestLedger(keep, tc.withShadow)
			n := &naiveLog{keep: keep}
			var tw *twinReplica
			if tc.withShadow {
				tw = newTwin()
			}
			commit := func(r int) {
				g := &GlobalMsg{Round: r, Participants: 2, Payload: ledgerPayload(r, !tc.withShadow && r%3 == 2)}
				l.commit(g)
				n.all = append(n.all, *g)
				if tw != nil {
					tw.apply(g)
				}
				checkLedger(t, fmt.Sprintf("commit %d", r), l, n, tw)
			}
			for r := 0; r < 4; r++ {
				commit(r)
			}

			// The upstream tier's state after its own rounds 0…8.
			up := newTwin()
			for r := 0; r <= 8; r++ {
				up.apply(&GlobalMsg{Round: r, Payload: ledgerPayload(100+r, false)})
			}
			snap := &wire.SnapshotMsg{Round: 8, MaskGen: -1, Payload: append([]float64(nil), up.x...)}
			if tc.carryMgr {
				snap.MaskGen = up.mgr.MaskGeneration()
				snap.Manager = core.EncodeState(up.mgr.Snapshot())
			}
			g := &GlobalMsg{Round: snap.Round, Payload: snap.Payload}
			l.jump(g, snap)
			n.start, n.all = snap.Round, []GlobalMsg{*g}
			switch {
			case tc.carryMgr:
				tw = up
			case tc.withShadow:
				tw = nil
				if _, _, ok := l.follower.Capture(); ok {
					t.Fatal("a stateless snapshot left the follower following")
				}
			}
			checkLedger(t, "jump to 8", l, n, tw)
			for r := 9; r < 13; r++ {
				commit(r)
			}
		})
	}
}

// TestLedgerRestore persists a live ledger at round 5, commits a WAL tail
// of rounds 6…9, and restores a fresh ledger from snapshot + tail, as
// recovery does. The follower comes back from its persisted state, or —
// when none was persisted — by replaying the history from round 0, or is
// desynced when eviction dropped round 0. The restored ledger must then
// keep matching its specification through further commits.
func TestLedgerRestore(t *testing.T) {
	for _, tc := range []struct {
		name          string
		keep          int
		withShadow    bool
		persistShadow bool
		healthy       bool // the restored follower must capture the twin
	}{
		{"no shadow", 3, false, false, false},
		{"persisted shadow", 3, true, true, true},
		{"shadow replayed from round 0", 0, true, false, true},
		{"shadow broken past eviction", 3, true, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live := newTestLedger(tc.keep, tc.withShadow)
			var tw *twinReplica
			if tc.withShadow {
				tw = newTwin()
			}
			var st serverState
			var tail []GlobalMsg
			for r := 0; r < 10; r++ {
				g := &GlobalMsg{Round: r, Participants: 2, Payload: ledgerPayload(r, !tc.withShadow && r%3 == 2)}
				live.commit(g)
				if tw != nil {
					tw.apply(g)
				}
				if r == 5 {
					live.persist(&st)
				} else if r > 5 {
					tail = append(tail, *g)
				}
			}
			if !tc.persistShadow {
				st.ShadowRound, st.Shadow, st.ShadowX = -1, nil, nil
			} else if st.ShadowRound != 5 {
				t.Fatalf("persisted shadow round %d, want 5", st.ShadowRound)
			}
			n := &naiveLog{keep: tc.keep, start: st.HistoryBase, all: append(append([]GlobalMsg(nil), st.History...), tail...)}
			st.History = append(st.History, tail...)

			restored := newTestLedger(tc.keep, tc.withShadow)
			if err := restored.restore(&st); err != nil {
				t.Fatal(err)
			}
			if !tc.healthy {
				tw = nil
			}
			checkLedger(t, "restored", restored, n, tw)
			for r := 10; r < 13; r++ {
				g := &GlobalMsg{Round: r, Participants: 2, Payload: ledgerPayload(r, !tc.withShadow && r%3 == 2)}
				restored.commit(g)
				n.all = append(n.all, *g)
				if tw != nil {
					tw.apply(g)
				}
				checkLedger(t, fmt.Sprintf("commit %d after restore", r), restored, n, tw)
			}
		})
	}
}

// TestLedgerRestoreRefusesWordRestrictedShadow: recovery refuses a
// persisted follower whose state covers only some mask words — the
// follower must be whole — instead of following from a partial replica.
func TestLedgerRestoreRefusesWordRestrictedShadow(t *testing.T) {
	live := newTestLedger(3, true)
	for r := 0; r < 6; r++ {
		live.commit(&GlobalMsg{Round: r, Participants: 2, Payload: ledgerPayload(r, false)})
	}
	var st serverState
	live.persist(&st)
	full, err := core.DecodeState(st.Shadow)
	if err != nil {
		t.Fatal(err)
	}
	part, err := full.Select([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	st.Shadow = core.EncodeState(part)
	if err := newTestLedger(3, true).restore(&st); err == nil {
		t.Fatal("restored a ledger from a word-restricted follower state")
	}
}

// TestLedgerFollowerDesync feeds the follower what it cannot fold — a
// compacted commit of the wrong length, or a recovered history that starts
// past round 0 (a gap) — and checks that captures turn stateless and stay
// so through later commits, until a jump to a snapshot carrying manager
// state restores the follower, after which they match the upstream twin
// bit for bit again.
func TestLedgerFollowerDesync(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(l *ledger, n *naiveLog)
	}{
		{"wrong-length compacted commit", func(l *ledger, n *naiveLog) {
			tw := newTwin()
			for r := 0; r < 6; r++ {
				g := &GlobalMsg{Round: r, Participants: 2, Payload: ledgerPayload(r, false)}
				l.commit(g)
				tw.apply(g)
				n.all = append(n.all, *g)
			}
			bad := tw.mgr.CompactLen(6) + 1 // neither the round's compacted length nor dense
			if bad == ledgerDim {
				bad -= 2
			}
			g := &GlobalMsg{Round: 6, Participants: 2, Payload: make([]float64, bad)}
			l.commit(g)
			n.all = append(n.all, *g)
		}},
		{"gap", func(l *ledger, n *naiveLog) {
			st := serverState{HistoryBase: 3, ShadowRound: -1}
			for r := 3; r < 7; r++ {
				st.History = append(st.History, GlobalMsg{Round: r, Participants: 2, Payload: ledgerPayload(r, false)})
			}
			if err := l.restore(&st); err != nil {
				t.Fatal(err)
			}
			n.start, n.all = 3, append([]GlobalMsg(nil), st.History...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newTestLedger(0, true)
			n := &naiveLog{}
			tc.start(l, n)
			checkLedger(t, "desynced", l, n, nil)
			for r := 7; r < 9; r++ {
				g := &GlobalMsg{Round: r, Participants: 2, Payload: ledgerPayload(r, false)}
				l.commit(g)
				n.all = append(n.all, *g)
				checkLedger(t, fmt.Sprintf("commit %d while desynced", r), l, n, nil)
				if cap := l.capture(); cap.state != nil {
					t.Fatalf("commit %d: desynced follower served a stateful capture", r)
				}
			}

			up := newTwin()
			for r := 0; r <= 12; r++ {
				up.apply(&GlobalMsg{Round: r, Payload: ledgerPayload(100+r, false)})
			}
			snap := &wire.SnapshotMsg{Round: 12, MaskGen: up.mgr.MaskGeneration(),
				Payload: append([]float64(nil), up.x...), Manager: core.EncodeState(up.mgr.Snapshot())}
			g := &GlobalMsg{Round: snap.Round, Payload: snap.Payload}
			l.jump(g, snap)
			n.start, n.all = snap.Round, []GlobalMsg{*g}
			checkLedger(t, "jump to 12", l, n, up)
			for r := 13; r < 16; r++ {
				p := ledgerPayload(r, false)
				if r == 14 { // compacted against the mask every replica holds
					p = append([]float64(nil), up.mgr.CompactUpload(r, p)...)
				}
				g := &GlobalMsg{Round: r, Participants: 2, Payload: p}
				l.commit(g)
				n.all = append(n.all, *g)
				up.apply(g)
				checkLedger(t, fmt.Sprintf("commit %d after the jump", r), l, n, up)
			}
		})
	}
}
