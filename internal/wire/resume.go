package wire

import "apf/internal/checkpoint"

// This file is the O(diff) catch-up exchange. A resuming client whose
// round fell off the server's bounded replay history receives a Welcome
// with CatchUp set and then drives one exchange:
//
//	client                                server
//	ResumeOffer{Round, MaskGen, Gens}  →
//	                                   ←  Snapshot{Manager}   (the words whose
//	                                                           generations differ)
//	— or, offering no Gens —
//	                                   ←  Snapshot{Manager}   (every word)
//	                                      or Snapshot{Payload} (stateless)
//
// An offer without Gens (managers without per-word generations, and
// relays adopting the root's round) requests the whole snapshot. The
// server's mask generation travels once, in the Welcome that opens the
// exchange; both frames here lead their body with Round.

// ResumeOfferMsg is the client's catch-up move.
type ResumeOfferMsg struct {
	// Round is the last round the client has applied.
	Round int
	// MaskGen is the client's mask generation; -1 when it offers no Gens.
	MaskGen int
	// Gens, when non-nil, is the client's per-word generation vector
	// (core.Manager.WordGens): one entry per 64-scalar mask word, encoded
	// as core.EncodeState encodes a state's WordGen.
	Gens []uint32
}

// SnapshotMsg ships the server's state at Round in one bounded frame:
// the manager state in its durable encoding for stateful managers, the
// canonical post-round model for stateless ones. The model is never sent
// twice: a stateful snapshot's model is its state's Ref, which equals the
// synchronized model after every download, so its Payload is empty. A
// full snapshot costs O(dim) regardless of how long the client was away;
// the one answering an offer's Gens covers exactly the mask words whose
// generations differ from them, and costs O(diff).
type SnapshotMsg struct {
	Round int
	// Payload is the canonical post-ApplyDownload model at Round on a
	// stateless snapshot, and empty on a stateful one.
	Payload []float64
	// Manager is the encoded core manager state (core.EncodeState), full
	// or word-restricted; empty on a stateless snapshot.
	Manager []byte
}

// WireKind implements Msg.
func (*ResumeOfferMsg) WireKind() Kind { return KindResumeOffer }

// WireKind implements Msg.
func (*SnapshotMsg) WireKind() Kind { return KindSnapshot }

func (m *ResumeOfferMsg) appendBody(w *checkpoint.Writer) {
	w.Int(m.Round)
	w.Int(m.MaskGen)
	w.Bool(m.Gens != nil)
	if m.Gens != nil {
		w.U32s(m.Gens)
	}
}

func readResumeOffer(r *checkpoint.Reader) *ResumeOfferMsg {
	m := &ResumeOfferMsg{Round: r.Int(), MaskGen: r.Int()}
	if r.Bool() {
		m.Gens = r.U32s()
		if m.Gens == nil {
			m.Gens = []uint32{}
		}
	}
	return m
}

func (m *SnapshotMsg) appendBody(w *checkpoint.Writer) {
	w.Int(m.Round)
	w.F64s(m.Payload)
	w.String(string(m.Manager))
}

func readSnapshot(r *checkpoint.Reader) *SnapshotMsg {
	m := &SnapshotMsg{Round: r.Int(), Payload: r.F64s()}
	if s := r.String(); s != "" {
		m.Manager = []byte(s)
	}
	return m
}
