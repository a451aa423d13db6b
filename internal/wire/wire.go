// Package wire is the federated protocol's binary wire format: a
// versioned, length-prefixed, CRC-checked framing plus codecs for the
// protocol messages, designed so that
//
//   - a message is serialized exactly once into an immutable frame that
//     can be fanned out to any number of connections (encode-once
//     broadcast: the server's per-round encode cost is O(1) in client
//     count);
//   - payload floats cross the wire as raw IEEE-754 bit patterns via
//     package checkpoint's codec primitives, so a decoded model vector is
//     bit-identical to the encoded one, NaN payloads included;
//   - decoders survive hostile input: a frame declares its length up
//     front, lengths are bounded before allocation, checksums cover the
//     header and payload, and structural damage surfaces as typed errors
//     (ErrCorrupt, ErrVersion, ErrUnknownKind, ErrTooLarge) rather than
//     panics or giant allocations.
//
// # Frame layout
//
// Every message is one frame:
//
//	offset  size  field
//	0       4     magic "APFW" (0x57465041 little-endian)
//	4       1     protocol version (Version)
//	5       1     message kind (KindJoin … KindSnapshot)
//	6       4     payload length, little-endian
//	10      n     payload (checkpoint.Writer encoding of the message body)
//	10+n    4     CRC-32 (IEEE) over header + payload
//
// # Versioning
//
// There is one protocol version. Every frame is stamped with Version and
// every body always carries all of its fields; a frame stamped with
// anything else fails with ErrVersion before any of its payload is
// interpreted, so incompatible peers part ways at the first message
// instead of mis-decoding each other. Decoding then encoding is the
// identity on accepted frames — the fuzz oracle.
package wire

import (
	"errors"
	"fmt"

	"apf/internal/checkpoint"
)

// Version is the protocol version stamped on every frame and the only one
// decoded.
const Version = 7

// Frame geometry.
const (
	frameMagic = 0x57465041 // "APFW" little-endian
	headerLen  = 10
	trailerLen = 4
	// MaxPayload is the hard upper bound on a frame payload; hostile
	// length fields beyond it are rejected before any allocation. Callers
	// reading from a network usually pass FrameReader.Read a much tighter
	// limit derived from the model geometry.
	MaxPayload = 1 << 30
)

// Kind identifies a protocol message within a frame.
type Kind uint8

// Message kinds.
const (
	// KindJoin frames a JoinMsg (client → server).
	KindJoin Kind = 1
	// KindWelcome frames a WelcomeMsg (server → client).
	KindWelcome Kind = 2
	// KindUpdate frames an UpdateMsg (client → server).
	KindUpdate Kind = 3
	// KindGlobal frames a GlobalMsg (server → client).
	KindGlobal Kind = 4
	// KindSparseUpdate frames a SparseUpdateMsg (client → server).
	KindSparseUpdate Kind = 5
	// KindSparseGlobal frames a SparseGlobalMsg (server → client).
	KindSparseGlobal Kind = 6
	// KindRelayJoin frames a RelayJoinMsg (relay → root).
	KindRelayJoin Kind = 7
	// KindPartialUpdate frames a PartialUpdateMsg (relay → root).
	KindPartialUpdate Kind = 8
	// KindResumeOffer frames a ResumeOfferMsg (client → server).
	KindResumeOffer Kind = 9
	// KindSketch frames a SketchMsg (server → client).
	KindSketch Kind = 10
	// KindSnapshot frames a SnapshotMsg (server → client).
	KindSnapshot Kind = 11
)

// String names the kind for error messages.
func (k Kind) String() string {
	switch k {
	case KindJoin:
		return "join"
	case KindWelcome:
		return "welcome"
	case KindUpdate:
		return "update"
	case KindGlobal:
		return "global"
	case KindSparseUpdate:
		return "sparse-update"
	case KindSparseGlobal:
		return "sparse-global"
	case KindRelayJoin:
		return "relay-join"
	case KindPartialUpdate:
		return "partial-update"
	case KindResumeOffer:
		return "resume-offer"
	case KindSketch:
		return "sketch"
	case KindSnapshot:
		return "snapshot"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Typed decode failures, distinguishable with errors.Is.
var (
	// ErrCorrupt marks a frame whose magic, checksum, or body structure is
	// damaged (torn writes, truncation, trailing garbage).
	ErrCorrupt = errors.New("wire: corrupt frame")
	// ErrVersion marks a frame from an incompatible protocol version.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrUnknownKind marks a structurally valid frame whose kind this
	// build does not understand.
	ErrUnknownKind = errors.New("wire: unknown message kind")
	// ErrTooLarge marks a frame whose declared payload exceeds the
	// caller's limit; it is detected from the header alone, before the
	// payload is read or allocated.
	ErrTooLarge = errors.New("wire: frame exceeds payload limit")
)

// Msg is one protocol message. The implementations are JoinMsg,
// WelcomeMsg, UpdateMsg, GlobalMsg, SparseUpdateMsg, SparseGlobalMsg,
// RelayJoinMsg, PartialUpdateMsg, ResumeOfferMsg, SketchMsg, and
// SnapshotMsg.
type Msg interface {
	// WireKind returns the frame kind this message serializes under.
	WireKind() Kind
	// appendBody serializes the message body; the interface is sealed to
	// this package so the kind↔type mapping stays closed.
	appendBody(w *checkpoint.Writer)
}

// JoinMsg registers a client with the server, or resumes a session.
type JoinMsg struct {
	Name string
	// SessionKey identifies a resumable session. Empty disables resume:
	// the connection registers a fresh anonymous session (pre-resume
	// behaviour). Reconnecting with a known key re-attaches to that
	// session instead of being rejected.
	SessionKey string
	// HaveRound is the last round the client has applied (-1 when it has
	// none); on resume the server replies with the missed payloads
	// (HaveRound+1 … current-1).
	HaveRound int
	// Caps advertises the client's codec capabilities (CapSparse,
	// CapQuantized, CapRecon). 0 requests the dense codec.
	Caps uint64
}

// WelcomeMsg tells a client its identity and the run geometry.
type WelcomeMsg struct {
	ClientID   int
	NumClients int
	Rounds     int
	Dim        int
	// Init is the initial global model (round-0 state). A resumed Welcome
	// answering a join with HaveRound ≥ 0 leaves it empty: a peer that
	// applied a round never reads it.
	Init []float64
	// Round is the round the server is currently collecting; 0 on a fresh
	// registration.
	Round int
	// Resumed marks a session re-attachment.
	Resumed bool
	// Missed carries the GlobalMsg payloads for rounds HaveRound+1 … Round-1
	// so a resuming client can replay them and rebuild its mask state.
	// Replay frames stay dense/lossless regardless of the negotiated
	// codec, so resume reconstruction is bit-exact by construction.
	Missed []GlobalMsg
	// Codec is the server's pick for this session given the client's
	// advertised Caps (never stronger than them). CodecDense keeps the
	// session on the dense Update/Global kinds.
	Codec Codec
	// CatchUp tells a resuming client that replay history no
	// longer reaches its round: Missed is empty and the client must run
	// the catch-up sub-protocol (ResumeOffer → Sketch/Delta or
	// Snapshot) before normal rounds resume.
	CatchUp bool
	// MaskGen (meaningful only with CatchUp) is the server-side
	// mask generation, letting the client detect a generation *ahead*
	// of the server's before any state moves (ErrFutureGeneration at
	// the transport layer).
	MaskGen int
}

// UpdateMsg carries one client's per-round push.
type UpdateMsg struct {
	Round   int
	Payload []float64
	Weight  float64
	// MaskHash is the FNV-1a hash of the sender's freezing-mask words;
	// 0 for managers without a mask. The server rejects rounds whose
	// participants disagree (transport.ErrMaskDivergence).
	MaskHash uint64
}

// GlobalMsg carries the aggregated model back to the clients.
type GlobalMsg struct {
	Round   int
	Payload []float64
	// Participants is the number of client updates folded into Payload
	// (K ≤ N under partial aggregation).
	Participants int
}

// WireKind implements Msg.
func (*JoinMsg) WireKind() Kind { return KindJoin }

// WireKind implements Msg.
func (*WelcomeMsg) WireKind() Kind { return KindWelcome }

// WireKind implements Msg.
func (*UpdateMsg) WireKind() Kind { return KindUpdate }

// WireKind implements Msg.
func (*GlobalMsg) WireKind() Kind { return KindGlobal }
