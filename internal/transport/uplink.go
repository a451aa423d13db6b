package transport

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"time"

	"apf/internal/checkpoint"
	"apf/internal/stats"
	"apf/internal/telemetry"
	"apf/internal/wire"
)

// DialFunc abstracts a peer's dialer so tests and the -chaos flag can
// inject fault-wrapped connections.
type DialFunc func(network, addr string) (net.Conn, error)

// Connection defaults to the tier above: the default dialer's connect
// timeout, and the backoff shape for peers that do not choose their own
// (relays always use it).
const (
	dialTimeout      = 10 * time.Second
	defaultRetryBase = 50 * time.Millisecond
	defaultRetryMax  = 2 * time.Second
)

// uplink is one peer's connection to the tier above: a client's to its
// server, a relay's to the root. It owns what both peer kinds share — the
// dial, the join and its Welcome, the cancellation watcher, byte
// accounting across connections, the catch-up request, and the single
// retry loop — while the round protocol on top (training and updates, or
// partial sums) stays with the caller.
type uplink struct {
	// peer names the tier above in errors ("server", "upstream"); codec is
	// this peer's payload codec, which every Welcome must announce.
	peer  string
	addr  string
	codec wire.Codec
	// dial nil selects a TCP dialer with dialTimeout; ioTimeout 0 selects
	// defaultIOTimeout.
	dial      DialFunc
	ioTimeout time.Duration
	// maxRetries bounds consecutive failed attempts; retryBase/retryMax
	// shape the backoff between them (0 selects the defaults), jittered by
	// the caller's stream. failures, when non-nil, counts every failure.
	maxRetries          int
	retryBase, retryMax time.Duration
	jitter              *rand.Rand
	failures            *telemetry.Counter
	wireM               wireMetrics
	log                 *slog.Logger

	// first keeps the identity and geometry of the first accepted Welcome
	// (nil before it); every later Welcome must resume it.
	first *WelcomeMsg
	// fails counts consecutive failed attempts; mark is the applied round
	// at the last failure, so progress past it refills the budget.
	fails, mark int

	// conn is the live connection, guarded for the cancellation watcher;
	// total counts the bytes of every connection, live or dropped.
	mu    sync.Mutex
	conn  *countingConn
	total byteCount
}

// newUplink applies the defaults to a configured uplink.
func newUplink(u *uplink) *uplink {
	if u.dial == nil {
		u.dial = func(network, addr string) (net.Conn, error) {
			return net.DialTimeout(network, addr, dialTimeout)
		}
	}
	if u.ioTimeout <= 0 {
		u.ioTimeout = defaultIOTimeout
	}
	if u.retryBase <= 0 {
		u.retryBase = defaultRetryBase
	}
	if u.retryMax <= 0 {
		u.retryMax = defaultRetryMax
	}
	return u
}

// jitterStream seeds one peer's backoff jitter: deterministic per (seed,
// session key, name) and independent of the training streams; base keeps
// the peer kinds' streams apart.
func jitterStream(seed, base int64, key, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(key + "/" + name))
	return stats.SplitRNG(seed, base+int64(h.Sum64()%1_000_000))
}

// watch tears the live connection down when ctx is cancelled, unblocking
// any I/O on it. The returned stop ends the watch and drops whatever
// connection is still open.
func (u *uplink) watch(ctx context.Context) (stop func()) {
	unwatch := watch(ctx, u.drop)
	return func() {
		unwatch()
		u.drop()
	}
}

// watch runs f in its own goroutine once ctx is cancelled, until the
// returned stop is called. stop waits for an f that already started, so
// nothing the watch started outlives it; it must be called once.
func watch(ctx context.Context, f func()) (stop func()) {
	done := make(chan struct{})
	unwatch := context.AfterFunc(ctx, func() {
		defer close(done)
		f()
	})
	return func() {
		if !unwatch() {
			<-done
		}
	}
}

// connect dials the tier above, writes join, and reads the Welcome,
// leaving the connection installed. Every Welcome must announce the
// peer's own codec; the first goes to accept, and every later one must
// resume it (checkRejoin).
func (u *uplink) connect(ctx context.Context, join wire.Msg, accept func(*WelcomeMsg) error) (*countingConn, *WelcomeMsg, error) {
	if ctx.Err() != nil {
		return nil, nil, ctx.Err()
	}
	raw, err := u.dial("tcp", u.addr)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: dial %s %s: %w", u.peer, u.addr, err)
	}
	conn := &countingConn{Conn: raw, total: &u.total}
	u.mu.Lock()
	u.conn = conn
	u.mu.Unlock()
	if ctx.Err() != nil {
		return nil, nil, ctx.Err() // the watcher may have missed this connection
	}
	if err := writeMsg(conn, u.ioTimeout, join, &u.wireM); err != nil {
		return nil, nil, fmt.Errorf("transport: join: %w", err)
	}
	// The welcome carries the init model plus every missed aggregate, so
	// its bound is the format ceiling rather than the model geometry.
	m, err := readMsg(conn, u.ioTimeout, checkpoint.MaxPayload, &u.wireM)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: welcome: %w", err)
	}
	w, ok := m.(*WelcomeMsg)
	if !ok {
		return nil, nil, protocolErrorf("expected a welcome frame, got %s", m.WireKind())
	}
	if w.Codec != u.codec {
		return nil, nil, protocolErrorf("%s speaks codec %s, this peer %s", u.peer, w.Codec, u.codec)
	}
	if u.first != nil {
		if err := checkRejoin(u.first, w); err != nil {
			return nil, nil, err
		}
		return conn, w, nil
	}
	if err := accept(w); err != nil {
		return nil, nil, err
	}
	u.first = &WelcomeMsg{ClientID: w.ClientID, Rounds: w.Rounds, Dim: w.Dim}
	return conn, w, nil
}

// current returns the live connection (nil when there is none).
func (u *uplink) current() *countingConn {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.conn
}

// drop closes the live connection (if any).
func (u *uplink) drop() {
	u.mu.Lock()
	conn := u.conn
	u.conn = nil
	u.mu.Unlock()
	if conn != nil {
		closeQuietly(conn)
	}
}

// bytes returns the bytes read and written across every connection.
func (u *uplink) bytes() (read, written int64) { return u.total.load() }

// retry runs attempt until it succeeds, dropping the connection after
// every failure and reconnecting with jittered exponential backoff.
// Cancellation, protocol violations, mask divergence, and a future mask
// generation are final. The budget is maxRetries consecutive failed
// attempts; a failure after *applied has advanced starts it afresh.
func (u *uplink) retry(ctx context.Context, applied *int, attempt func() error) error {
	for {
		err := attempt()
		if err == nil {
			return nil
		}
		u.drop()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, errProtocol) || errors.Is(err, ErrMaskDivergence) ||
			errors.Is(err, ErrFutureGeneration) {
			return err
		}
		if *applied > u.mark {
			u.fails = 0 // progress made: refill the retry budget
		}
		u.mark = *applied
		u.fails++
		u.failures.Inc()
		if u.fails > u.maxRetries {
			return fmt.Errorf("transport: %s connection failed (after %d reconnect attempt(s)): %w",
				u.peer, u.fails-1, err)
		}
		u.log.Warn("connection lost, retrying", "peer", u.peer, "attempt", u.fails, "err", err)
		if err := sleepBackoff(ctx, u.jitter, u.retryBase, u.retryMax, u.fails); err != nil {
			return err
		}
	}
}

// sleepBackoff waits the jittered exponential backoff for the given attempt
// (1-based), honouring cancellation.
func sleepBackoff(ctx context.Context, rng *rand.Rand, base, max time.Duration, attempt int) error {
	d := base << (attempt - 1)
	if d <= 0 || d > max {
		d = max
	}
	jittered := d/2 + time.Duration(rng.Float64()*float64(d/2))
	select {
	case <-time.After(jittered):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
