// Package transport runs the federated protocol over a real network: a TCP
// aggregation server and trainer clients exchanging messages framed by the
// binary wire format of package wire (versioned, length-prefixed,
// CRC-checked, bit-exact floats). It complements the in-process simulator
// (package fl) by demonstrating the same SyncManager schemes — including
// APF's compact, mask-elided payloads (fl.CompactCodec) — end to end over
// an actual transport, with measured wire bytes.
//
// The stack is three layers. Package wire owns framing and message codecs;
// this package's connection layer owns sockets — framed reads with payload
// limits, per-session writer goroutines fanning out shared pre-encoded
// frames, reconnect/resume — and the round engine (roundEngine) owns the
// protocol state machine (collect/admit/deadline/partial-aggregate/
// commit), driven purely through an event channel and a roundSink, so the
// same engine runs under TCP and under in-process tests without sockets.
//
// Protocol, per connection:
//
//	client → server  JoinMsg     (fresh registration or session resume)
//	server → client  WelcomeMsg  (identity, geometry, missed payloads)
//	repeat until the announced rounds complete:
//	  client → server  UpdateMsg
//	  server → client  GlobalMsg  (strictly sequential per connection)
//
// The server averages compact payloads positionally, which is sound because
// deterministic managers produce identical freezing masks on every client;
// every UpdateMsg carries an FNV-1a hash of the sender's freezing mask and
// the server refuses to average updates whose hashes disagree
// (ErrMaskDivergence) instead of silently mis-averaging.
//
// Fault tolerance (ServerConfig.RoundDeadline > 0): the server keeps
// accepting connections for the whole run, aggregates with the K ≤ N
// updates received once the round deadline passes (weighted partial
// FedAvg), and lets a disconnected client resume its session: the client
// redials with the same SessionKey and the last round it applied, and the
// server replies with every GlobalMsg payload it missed, which the client
// replays through its manager to rebuild model and mask state exactly.
// Clients reconnect with seeded exponential backoff plus jitter, bounded
// by MaxRetries, and re-send the in-flight UpdateMsg idempotently (the
// server drops duplicates and stale rounds).
package transport

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

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
	// ResumeOfferMsg opens and steers a catch-up exchange.
	ResumeOfferMsg = wire.ResumeOfferMsg
	// SketchMsg carries a batch of rateless-IBLT cells.
	SketchMsg = wire.SketchMsg
	// SnapshotMsg carries the full current state for O(dim) catch-up.
	SnapshotMsg = wire.SnapshotMsg
	// DeltaMsg carries only the diverged mask words after sketch
	// reconciliation.
	DeltaMsg = wire.DeltaMsg
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

// countingConn wraps a connection and counts bytes in both directions.
type countingConn struct {
	net.Conn
	mu      sync.Mutex
	read    int64
	written int64
}

// Read implements io.Reader with byte counting.
func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read += int64(n)
	c.mu.Unlock()
	return n, err
}

// Write implements io.Writer with byte counting.
func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.written += int64(n)
	c.mu.Unlock()
	return n, err
}

// Counts returns the bytes read and written so far.
func (c *countingConn) Counts() (read, written int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.read, c.written
}

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

// checkWelcome validates a decoded WelcomeMsg against the client's model
// dimension. Shared by the client and the protocol fuzz targets.
func checkWelcome(w *WelcomeMsg, wantDim int) error {
	if w.Dim != wantDim {
		return protocolErrorf("server model dimension %d, local model has %d", w.Dim, wantDim)
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

// checkUpdates validates one round's received updates before aggregation:
// consistent payload lengths, finite non-negative weights, and agreeing
// mask hashes. Updates may contain nil entries (absent clients under
// partial aggregation). Shared by the server and the protocol fuzz targets.
func checkUpdates(round int, updates []*UpdateMsg) error {
	n := -1
	first := -1
	for i, u := range updates {
		if u == nil {
			continue
		}
		if math.IsNaN(u.Weight) || math.IsInf(u.Weight, 0) || u.Weight < 0 {
			return protocolErrorf("round %d: invalid weight %v from client %d", round, u.Weight, i)
		}
		if n < 0 {
			n, first = len(u.Payload), i
			continue
		}
		if len(u.Payload) != n {
			return protocolErrorf("round %d: payload length mismatch: client %d sent %d, client %d sent %d",
				round, first, n, i, len(u.Payload))
		}
	}
	if n < 0 {
		return protocolErrorf("round %d: no updates", round)
	}
	var hash uint64
	hashFrom := -1
	for i, u := range updates {
		if u == nil {
			continue
		}
		if hashFrom < 0 {
			hash, hashFrom = u.MaskHash, i
			continue
		}
		if u.MaskHash != hash {
			return fmt.Errorf("%w: round %d: client %d mask hash %016x, client %d mask hash %016x",
				ErrMaskDivergence, round, hashFrom, hash, i, u.MaskHash)
		}
	}
	return nil
}
