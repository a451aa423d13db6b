package wire

import (
	"apf/internal/checkpoint"
	"apf/internal/recon"
)

// This file is the O(diff) catch-up sub-protocol. A resuming client
// whose round fell off the server's bounded replay history receives a
// Welcome with CatchUp set and then drives:
//
//	client                          server
//	ResumeOffer{Round, MaskGen}  →
//	                             ←  Sketch{Cells...}      (sketch mode)
//	ResumeOffer{NeedMore}        →                        (not decoded yet)
//	                             ←  Sketch{Cells...}
//	ResumeOffer{Words: [...]}    →                        (decoded)
//	                             ←  Snapshot{Payload, Manager} (those words)
//	— or —
//	                             ←  Snapshot{Payload, Manager} (every word)
//
// A ResumeOffer with MaskGen -1 requests the snapshot mode outright
// (managers without reconciliation state, and relays adopting the
// root's round).

// CapRecon is the capability bit a client advertises in JoinMsg.Caps
// when its manager supports sketch reconciliation (per-word generation
// tracking and the import of a word-restricted manager state).
const CapRecon uint64 = 1 << 2

// ResumeOfferMsg is the client's catch-up move. Exactly one of three
// forms: the opening offer (NeedMore false, Words nil), a request for
// more sketch cells (NeedMore true), or the decoded diff (Words set to
// the mask-word indices whose state the client needs).
type ResumeOfferMsg struct {
	// Round is the last round the client has applied.
	Round int
	// MaskGen is the client's mask generation; -1 requests snapshot
	// catch-up unconditionally.
	MaskGen int
	// NeedMore asks for another sketch batch.
	NeedMore bool
	// Words, when non-nil, closes sketch mode: the decoded diff.
	Words []int
}

// SketchMsg streams one batch of rateless coded cells over the
// server's (word, generation) set, starting at stream index Start.
type SketchMsg struct {
	Round   int
	MaskGen int
	Start   int
	Cells   []recon.Cell
}

// SnapshotMsg ships the server's current state in one bounded frame: the
// canonical post-round model plus (for stateful managers) the manager
// state in its durable encoding. A full snapshot costs O(dim) regardless
// of how long the client was away; the one closing a decoded sketch
// covers exactly the mask words the client's ResumeOffer listed, and
// costs O(diff).
type SnapshotMsg struct {
	Round   int
	MaskGen int
	// Payload is the canonical post-ApplyDownload model at Round, or its
	// scalars in the words the manager state covers, packed.
	Payload []float64
	// Manager is the encoded core manager state (core.EncodeState), whose
	// word coverage Payload follows; empty for stateless managers, which
	// need only Round and Payload.
	Manager []byte
}

// WireKind implements Msg.
func (*ResumeOfferMsg) WireKind() Kind { return KindResumeOffer }

// WireKind implements Msg.
func (*SketchMsg) WireKind() Kind { return KindSketch }

// WireKind implements Msg.
func (*SnapshotMsg) WireKind() Kind { return KindSnapshot }

func (m *ResumeOfferMsg) appendBody(w *checkpoint.Writer) {
	w.Int(m.Round)
	w.Int(m.MaskGen)
	w.Bool(m.NeedMore)
	w.Bool(m.Words != nil)
	if m.Words != nil {
		w.Ints(m.Words)
	}
}

func readResumeOffer(r *checkpoint.Reader) *ResumeOfferMsg {
	m := &ResumeOfferMsg{Round: r.Int(), MaskGen: r.Int(), NeedMore: r.Bool()}
	if r.Bool() {
		m.Words = r.Ints()
		if m.Words == nil {
			m.Words = []int{}
		}
	}
	return m
}

// cellLen is the encoded size of one coded cell (sum, hash, count).
const cellLen = 24

func (m *SketchMsg) appendBody(w *checkpoint.Writer) {
	w.Int(m.Round)
	w.Int(m.MaskGen)
	w.Int(m.Start)
	w.Int(len(m.Cells))
	for _, c := range m.Cells {
		w.U64(uint64(c.Sum))
		w.U64(c.Hash)
		w.U64(uint64(c.Count))
	}
}

func readSketch(r *checkpoint.Reader) *SketchMsg {
	m := &SketchMsg{Round: r.Int(), MaskGen: r.Int(), Start: r.Int()}
	n := r.Int()
	if r.Err() != nil {
		return m
	}
	if n < 0 || n > r.Remaining()/cellLen {
		r.Fail("sketch cell count overruns frame")
		return m
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Cells = append(m.Cells, recon.Cell{
			Sum:   recon.Symbol(r.U64()),
			Hash:  r.U64(),
			Count: int64(r.U64()),
		})
	}
	return m
}

func (m *SnapshotMsg) appendBody(w *checkpoint.Writer) {
	w.Int(m.Round)
	w.Int(m.MaskGen)
	w.F64s(m.Payload)
	w.String(string(m.Manager))
}

func readSnapshot(r *checkpoint.Reader) *SnapshotMsg {
	m := &SnapshotMsg{Round: r.Int(), MaskGen: r.Int(), Payload: r.F64s()}
	if s := r.String(); s != "" {
		m.Manager = []byte(s)
	}
	return m
}
