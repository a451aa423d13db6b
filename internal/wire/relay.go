package wire

import (
	"apf/internal/checkpoint"
	"apf/internal/fl"
)

// RelayJoinMsg registers an edge relay with the root, or resumes a relay
// session. It is the relay-tier analogue of JoinMsg: the root answers with
// the same WelcomeMsg a client would get (geometry, init model, missed
// rounds), but the session collects PartialUpdateMsg pushes instead of
// per-client updates. Relay↔root traffic is always full-dimension — a relay
// folds whatever its clients negotiated back into exact fixed-point columns
// — so the message advertises no codec capabilities.
type RelayJoinMsg struct {
	Name string
	// SessionKey identifies a resumable relay session, exactly as on
	// JoinMsg. Empty registers a fresh anonymous session.
	SessionKey string
	// HaveRound is the last round the relay has applied (-1 when none).
	HaveRound int
	// Clients is the number of client sessions the relay intends to
	// terminate — advisory capacity information the root exposes through
	// telemetry; the authoritative per-round count rides on each
	// PartialUpdateMsg.
	Clients int
}

// PartialUpdateMsg carries one relay's pre-aggregated round contribution:
// the exact 128-bit fixed-point partial sum over its accepted client
// updates. Because the accumulator is an integer, the root's merge is
// bit-exact under any client→relay partitioning; the count and the weight
// words travel alongside so weighted FedAvg divides by the true totals.
//
// The body is Round, Count, WeightLo, WeightHi, MaskHash and the
// coordinate count (8 bytes each), then the column sums in fl's packed
// block layout (fl/packed.go): per 256 coordinates a 1-byte width n ∈
// [1, 16] and the block's sums as n-byte little-endian two's-complement
// values, n the minimum that sign-extends to every sum of the block. Sums
// of sane updates fit 8 bytes, so a frame is about half the 16
// bytes/coordinate of the raw limb pairs; the worst case is 16
// bytes/coordinate plus one tag per block (fl.MaxPackedLen). The packing
// is lossless and canonical — the decoder refuses a tag outside [1, 16], a
// wider-than-minimal tag, and a section shorter or longer than the
// coordinate count dictates — so decode∘encode is the identity.
type PartialUpdateMsg struct {
	Round int
	// MaskHash is the freezing-mask hash shared by every client folded
	// into this partial; the root rejects rounds whose relays disagree,
	// exactly as it does for direct clients (transport.ErrMaskDivergence).
	MaskHash uint64
	// Sum is the partial itself: contribution count, Q64.64 total weight
	// and per-coordinate sums. A sender supplies the sums in Sum.Cols and
	// the encoder packs them straight into the frame; a decoded message
	// carries them as Sum.Packed, a validated view ALIASING the buffer the
	// frame was decoded from (Decode's input, or the body FrameReader.Read
	// allocated), which fl.Partial.Merge folds in without ever
	// materializing the columns.
	Sum fl.Partial
}

// WireKind implements Msg.
func (*RelayJoinMsg) WireKind() Kind { return KindRelayJoin }

// WireKind implements Msg.
func (*PartialUpdateMsg) WireKind() Kind { return KindPartialUpdate }

// appendBody serializes a RelayJoinMsg body.
func (m *RelayJoinMsg) appendBody(w *checkpoint.Writer) {
	w.String(m.Name)
	w.String(m.SessionKey)
	w.Int(m.HaveRound)
	w.Int(m.Clients)
}

// readRelayJoin decodes a RelayJoinMsg body.
func readRelayJoin(r *checkpoint.Reader) *RelayJoinMsg {
	m := &RelayJoinMsg{
		Name:       r.String(),
		SessionKey: r.String(),
		HaveRound:  r.Int(),
		Clients:    r.Int(),
	}
	if r.Err() == nil && m.Clients < 0 {
		r.Fail("negative relay client count")
	}
	return m
}

// partialFixedLen is the encoded size of a PartialUpdateMsg body ahead of
// its packed column section: six 8-byte fields.
const partialFixedLen = 6 * 8

// appendBody serializes a PartialUpdateMsg body.
func (m *PartialUpdateMsg) appendBody(w *checkpoint.Writer) {
	w.Int(m.Round)
	w.Int(m.Sum.Count)
	w.U64(m.Sum.WeightLo)
	w.U64(m.Sum.WeightHi)
	w.U64(m.MaskHash)
	w.Int(m.Sum.Dim())
	w.AppendWith(m.Sum.AppendPacked)
}

// readPartialUpdate decodes a PartialUpdateMsg body. The packed section is
// the rest of the body and is validated in place against the declared
// coordinate count (fl.ParsePacked: no allocation, walk bounded by the
// bytes present), so structural damage — like a negative count — fails the
// reader rather than escaping into the aggregation path.
func readPartialUpdate(r *checkpoint.Reader) *PartialUpdateMsg {
	m := &PartialUpdateMsg{Round: r.Int()}
	m.Sum.Count = r.Int()
	m.Sum.WeightLo = r.U64()
	m.Sum.WeightHi = r.U64()
	m.MaskHash = r.U64()
	dim := r.Int()
	section := r.Rest()
	if r.Err() != nil {
		return m
	}
	if m.Sum.Count < 0 {
		r.Fail("negative partial-update count")
		return m
	}
	packed, err := fl.ParsePacked(dim, section)
	if err != nil {
		r.Fail(err.Error())
		return m
	}
	m.Sum.Packed = packed
	return m
}

// PartialSectionLen returns the length of the packed column section inside
// an encoded PartialUpdateMsg frame — what the relay compares against the
// raw 16 bytes/coordinate when it accounts the bytes packing saved.
func PartialSectionLen(frame []byte) int {
	return len(frame) - headerLen - trailerLen - partialFixedLen
}
