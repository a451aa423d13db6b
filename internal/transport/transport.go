// Package transport runs the federated protocol over a real network: a TCP
// aggregation server and trainer clients exchanging messages framed by the
// binary wire format of package wire (versioned, length-prefixed,
// CRC-checked, bit-exact floats). It complements the in-process simulator
// (package fl) by demonstrating the same SyncManager schemes — including
// APF's compact, mask-elided payloads (fl.CompactCodec) — end to end over
// an actual transport, with measured wire bytes.
//
// The stack is three layers. Package wire owns framing and message codecs;
// this package's connection layer owns sockets — one goroutine per
// accepted connection from its join to its close (join, attach, Welcome,
// any catch-up, then reading), framed reads with payload limits,
// per-session writer goroutines fanning out shared pre-encoded frames,
// reconnect/resume — and the round engine (roundEngine) owns the
// protocol state machine (collect/admit/deadline/partial-aggregate/
// commit), driven purely through an event channel and a roundSink, so the
// same engine runs under TCP and under in-process tests without sockets.
//
// Protocol, per connection:
//
//	client → server  JoinMsg     (fresh registration or session resume)
//	server → client  WelcomeMsg  (identity, geometry, missed payloads)
//	if the Welcome sets CatchUp (a resume past the replay history):
//	  client → server  ResumeOfferMsg  (round, mask generation and, from a
//	                                    stateful client, its per-word
//	                                    generations)
//	  server → client  SnapshotMsg     (the words whose generations differ,
//	                                    or the whole state)
//	repeat until the announced rounds complete:
//	  client → server  UpdateMsg   (SparseUpdateMsg on a sparse cluster)
//	  server → client  GlobalMsg   (SparseGlobalMsg on a sparse cluster once
//	                                the round's mask hashes agree; strictly
//	                                sequential per connection)
//
// A relay joins its parent with RelayJoinMsg in place of JoinMsg and
// pushes PartialUpdateMsg in place of UpdateMsg; its catch-up is the
// snapshot mode alone.
//
// The server averages compact payloads positionally, which is sound because
// deterministic managers produce identical freezing masks on every client;
// every UpdateMsg carries an FNV-1a hash of the sender's freezing mask and
// the server refuses to average updates whose hashes disagree
// (ErrMaskDivergence) instead of silently mis-averaging.
//
// Strict mode (ServerConfig.RoundDeadline == 0) aborts the run on the
// failure of any session. A connection that never becomes a session —
// garbage, silence past the I/O timeout, a refused join — is closed and
// logged, and never decides the run in either mode.
//
// Fault tolerance (ServerConfig.RoundDeadline > 0): the server keeps
// accepting connections for the whole run, aggregates with the K ≤ N
// updates received once the round deadline passes (weighted partial
// FedAvg), and lets a disconnected client resume its session: the client
// redials with the same SessionKey and the last round it applied, and the
// Welcome carries every GlobalMsg payload it missed, which the client
// replays through its manager to rebuild model and mask state exactly —
// or, past the retained window (ServerConfig.HistoryRounds), opens the
// catch-up conversation (catchup.go), which reaches the same state.
// Clients reconnect with seeded exponential backoff plus jitter, bounded
// by MaxRetries, and re-send the in-flight UpdateMsg idempotently (the
// server drops duplicates and stale rounds).
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"apf/internal/core"
	"apf/internal/wire"
)

// Default I/O deadline applied to every message exchange.
const defaultIOTimeout = 30 * time.Second

// The protocol messages are defined by package wire (which owns their
// serialization); the aliases keep them addressable from this package.
type (
	// JoinMsg registers a client with the server, or resumes a session.
	JoinMsg = wire.JoinMsg
	// WelcomeMsg tells a client its identity and the run geometry.
	WelcomeMsg = wire.WelcomeMsg
	// UpdateMsg carries one client's per-round push.
	UpdateMsg = wire.UpdateMsg
	// GlobalMsg carries the aggregated model back to the clients.
	GlobalMsg = wire.GlobalMsg
	// SparseUpdateMsg is the mask-aware form of UpdateMsg.
	SparseUpdateMsg = wire.SparseUpdateMsg
	// SparseGlobalMsg is the mask-aware form of GlobalMsg.
	SparseGlobalMsg = wire.SparseGlobalMsg
	// RelayJoinMsg registers an edge relay with the root.
	RelayJoinMsg = wire.RelayJoinMsg
	// PartialUpdateMsg carries a relay's exact pre-aggregated partial sum
	// upstream.
	PartialUpdateMsg = wire.PartialUpdateMsg
	// ResumeOfferMsg opens a catch-up exchange.
	ResumeOfferMsg = wire.ResumeOfferMsg
	// SnapshotMsg carries the current state for catch-up: all of it, or
	// just the mask words whose generations the offer did not match.
	SnapshotMsg = wire.SnapshotMsg
)

// HashMaskWords returns the FNV-1a hash of a freezing mask's backing words
// (fl.MaskReporter.MaskWords). Identical masks hash identically on every
// client, so the server can verify positional-averaging soundness from an
// 8-byte digest instead of the full bitmap.
func HashMaskWords(words []uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h ^= w & 0xff
			h *= prime64
			w >>= 8
		}
	}
	return h
}

// roundMarker is implemented by fault-injecting connections (package chaos)
// that script faults at round granularity. The transport marks each round
// on its connections so such wrappers know where the protocol stands.
type roundMarker interface {
	MarkRound(round int)
}

// markRound notifies a connection (unwrapping countingConn layers) that the
// protocol has reached the given round. No-op for plain connections.
func markRound(c net.Conn, round int) {
	for c != nil {
		if rm, ok := c.(roundMarker); ok {
			rm.MarkRound(round)
			return
		}
		cc, ok := c.(*countingConn)
		if !ok {
			return
		}
		c = cc.Conn
	}
}

// byteCount is a pair of running byte counters, safe for concurrent use.
type byteCount struct{ read, written atomic.Int64 }

// load returns the bytes read and written so far.
func (b *byteCount) load() (read, written int64) { return b.read.Load(), b.written.Load() }

// countingConn wraps a connection and counts bytes in both directions,
// twice: into its own counters and into its owner's running total over
// every connection it ever held. Bytes are counted at the Read or Write
// that moved them and never folded later, so a Write that returns after
// its connection was closed and forgotten still reaches the total.
type countingConn struct {
	net.Conn
	own   byteCount
	total *byteCount
}

// Read implements io.Reader with byte counting.
func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.own.read.Add(int64(n))
	c.total.read.Add(int64(n))
	return n, err
}

// Write implements io.Writer with byte counting.
func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.own.written.Add(int64(n))
	c.total.written.Add(int64(n))
	return n, err
}

// Counts returns the bytes this connection read and wrote so far.
func (c *countingConn) Counts() (read, written int64) { return c.own.load() }

// errProtocol wraps protocol violations distinguishable from I/O errors.
var errProtocol = errors.New("transport: protocol violation")

// ErrMaskDivergence is returned (wrapped) by Server.Run when the updates of
// one round carry disagreeing freezing-mask hashes: positional averaging of
// compact payloads would silently mis-average, so the round is refused.
var ErrMaskDivergence = errors.New("transport: freezing mask divergence")

// protocolErrorf builds an error matching errProtocol under errors.Is.
func protocolErrorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errProtocol, fmt.Sprintf(format, args...))
}

// closeQuietly closes c, ignoring errors (shutdown paths).
func closeQuietly(c io.Closer) { _ = c.Close() }

// checkWelcome validates the geometry of a peer's first WelcomeMsg. Shared
// by the client (whose fl.Replica then checks the init against its model),
// the relay, and the protocol fuzz targets.
func checkWelcome(w *WelcomeMsg) error {
	if w.Dim <= 0 {
		return protocolErrorf("server model dimension %d", w.Dim)
	}
	if w.Rounds <= 0 || w.NumClients <= 0 || w.ClientID < 0 || w.ClientID >= w.NumClients {
		return protocolErrorf("invalid welcome geometry clients=%d rounds=%d id=%d",
			w.NumClients, w.Rounds, w.ClientID)
	}
	if len(w.Init) != w.Dim {
		return protocolErrorf("welcome init length %d, want %d", len(w.Init), w.Dim)
	}
	if w.Round < 0 || w.Round >= w.Rounds+1 {
		return protocolErrorf("welcome round %d outside [0,%d]", w.Round, w.Rounds)
	}
	return nil
}

// checkRejoin validates the Welcome of a reconnect against the session's
// first one. The tier above must resume the same session: a fresh
// Welcome means it lost the session (a restart without a checkpoint), and
// the rounds this peer applied no longer exist there.
func checkRejoin(first, w *WelcomeMsg) error {
	if w.ClientID != first.ClientID || w.Rounds != first.Rounds || w.Dim != first.Dim {
		return protocolErrorf("resume welcome changed geometry: id %d→%d rounds %d→%d dim %d→%d",
			first.ClientID, w.ClientID, first.Rounds, w.Rounds, first.Dim, w.Dim)
	}
	if !w.Resumed {
		return protocolErrorf("server restarted the session instead of resuming it")
	}
	return nil
}

// checkSnapshot validates a snapshot frame — a catch-up answer or a
// mid-stream jump — against the receiver's applied round and model
// dimension, and returns its decoded manager state (nil when stateless)
// and the model scalars it carries, once: a stateful frame's are its
// state's Ref (packed, when word-restricted), so its payload must be
// empty; a stateless frame's payload is the whole model. gens is the
// generation vector the receiver offered (nil if none): a word-restricted
// state may answer only an offer, and may cover only words whose
// generation differs from the offered one; the restore checks its array
// lengths.
func checkSnapshot(sm *wire.SnapshotMsg, applied, dim int, gens []uint32) (*core.State, []float64, error) {
	if sm.Round <= applied {
		return nil, nil, protocolErrorf("snapshot for round %d at applied round %d", sm.Round, applied)
	}
	if len(sm.Manager) == 0 {
		if len(sm.Payload) != dim {
			return nil, nil, protocolErrorf("stateless snapshot payload length %d, want %d", len(sm.Payload), dim)
		}
		return nil, sm.Payload, nil
	}
	if len(sm.Payload) != 0 {
		return nil, nil, protocolErrorf("stateful snapshot carries a %d-scalar payload", len(sm.Payload))
	}
	st, err := core.DecodeState(sm.Manager)
	if err != nil {
		return nil, nil, protocolErrorf("snapshot manager state: %v", err)
	}
	if st.Dim != dim || (st.Words == nil && len(st.Ref) != dim) {
		return nil, nil, protocolErrorf("snapshot state holds %d of %d model scalars, want %d", len(st.Ref), st.Dim, dim)
	}
	if st.Words != nil {
		if gens == nil {
			return nil, nil, protocolErrorf("snapshot covers %d words, none offered", len(st.Words))
		}
		if len(st.WordGen) != len(st.Words) {
			return nil, nil, protocolErrorf("snapshot covers %d words with %d generations", len(st.Words), len(st.WordGen))
		}
		for i, w := range st.Words {
			if w < 0 || w >= len(gens) || st.WordGen[i] == gens[w] {
				return nil, nil, protocolErrorf("snapshot covers word %d, not one whose generation differs from the %d offered", w, len(gens))
			}
		}
	}
	return st, st.Ref, nil
}

// checkGlobal validates one GlobalMsg in a client's strictly sequential
// download stream. compactOK permits payloads shorter than dim (mask-elided
// aggregates); dense payloads must match dim exactly. Shared by the client
// and the protocol fuzz targets.
func checkGlobal(g *GlobalMsg, expectRound, dim int, compactOK bool) error {
	if g.Round != expectRound {
		return protocolErrorf("server sent round %d, expected round %d", g.Round, expectRound)
	}
	if compactOK {
		if len(g.Payload) > dim {
			return protocolErrorf("round %d payload length %d exceeds model dimension %d",
				g.Round, len(g.Payload), dim)
		}
		return nil
	}
	if len(g.Payload) != dim {
		return protocolErrorf("round %d payload length %d, want %d", g.Round, len(g.Payload), dim)
	}
	return nil
}
