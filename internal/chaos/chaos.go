// Package chaos injects deterministic, scripted network faults into the
// transport layer for fault-tolerance testing. A Script holds faults keyed
// by (peer, round); Conn wraps a net.Conn and fires the scripted fault —
// connection severing, message delay, or a partial (torn) write — when the
// protocol reaches the scripted round. The transport announces rounds by
// calling MarkRound on its connections, so scripts are expressed in
// protocol terms ("kill client shard-1 at round 3") rather than byte or
// call counts.
//
// Every randomized choice (partial-write prefix length when unspecified)
// derives from the script seed and the peer name, never from wall clock or
// global state, so a scripted run is reproducible bit for bit. The
// transport writes each wire frame with a single Write call, so a torn
// write cuts a frame mid-header or mid-payload — exactly the truncation
// the framing's length and CRC checks exist to catch. Each fault
// fires exactly once per script: after a severed client redials, the new
// connection does not re-trigger the fault that killed its predecessor.
//
// Wrap a client's dialer with Script.Dialer, or a server's listener with
// Script.Listener (accepted connections are named "accept:0", "accept:1",
// … in accept order). Command-line use: ParseSpec parses the -chaos flag
// syntax of cmd/apf-client and cmd/apf-server.
package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind selects the fault behaviour.
type Kind int

// Fault kinds.
const (
	// Sever closes the connection at the trigger point.
	Sever Kind = iota + 1
	// Delay sleeps before the triggering operation proceeds.
	Delay
	// PartialWrite writes only a prefix of the triggering write, then
	// severs the connection, leaving a torn message on the wire.
	PartialWrite
	// KillServer invokes the script's OnKill hook at the trigger point,
	// modelling a coordinator crash (kill -9) rather than a connection
	// fault. The process under test wires OnKill to its crash path:
	// cmd/apf-server SIGKILLs itself; in-process tests cancel the server
	// context. Peer naming still applies — the fault fires when the
	// scripted round is marked on a matching connection.
	KillServer
)

// String names the kind in -chaos flag syntax.
func (k Kind) String() string {
	switch k {
	case Sever:
		return "sever"
	case Delay:
		return "delay"
	case PartialWrite:
		return "partial"
	case KillServer:
		return "kill-server"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Op anchors a fault to an operation at or after its round mark.
type Op int

// Fault trigger anchors.
const (
	// AtMark fires immediately when the round is marked.
	AtMark Op = iota + 1
	// OnWrite fires on the first write at/after the round mark.
	OnWrite
	// OnRead fires on the first read at/after the round mark.
	OnRead
)

// Fault is one scripted injection point.
type Fault struct {
	// Peer names the connection the fault applies to: the dialer name for
	// clients, "accept:<i>" for the i-th server-side accepted connection.
	// Empty matches every peer.
	Peer string
	// Round is the protocol round (as announced via MarkRound) at which
	// the fault arms.
	Round int
	// Kind selects the behaviour; Op anchors it (zero value picks the
	// kind's natural anchor: Sever→AtMark, Delay→OnWrite,
	// PartialWrite→OnWrite).
	Kind Kind
	Op   Op
	// Delay is the sleep for Kind Delay.
	Delay time.Duration
	// Bytes is the prefix length for Kind PartialWrite; 0 draws a seeded
	// random prefix of the triggering write.
	Bytes int
}

// anchor resolves the fault's effective trigger anchor.
func (f Fault) anchor() Op {
	if f.Op != 0 {
		return f.Op
	}
	if f.Kind == Sever || f.Kind == KillServer {
		return AtMark
	}
	return OnWrite
}

// ErrInjected is the error surfaced by I/O on a chaos-severed connection.
var ErrInjected = fmt.Errorf("chaos: connection severed by fault injection")

// Script is a seeded set of faults consumed over one run. Safe for
// concurrent use by multiple connections.
type Script struct {
	seed int64

	mu       sync.Mutex
	faults   []Fault
	fired    []bool
	accepted int
	onKill   func()
}

// NewScript builds a script from the given faults.
func NewScript(seed int64, faults ...Fault) *Script {
	return &Script{
		seed:   seed,
		faults: append([]Fault(nil), faults...),
		fired:  make([]bool, len(faults)),
	}
}

// SetOnKill installs the hook invoked by KillServer faults. Set it before
// any connection reaches a scripted kill round; a KillServer fault firing
// with no hook installed panics (a mis-wired crash script must not
// silently keep the process alive).
func (s *Script) SetOnKill(fn func()) {
	s.mu.Lock()
	s.onKill = fn
	s.mu.Unlock()
}

// kill invokes the OnKill hook for a fired KillServer fault.
func (s *Script) kill() {
	s.mu.Lock()
	fn := s.onKill
	s.mu.Unlock()
	if fn == nil {
		panic("chaos: KillServer fault fired with no OnKill hook installed")
	}
	fn()
}

// take consumes all unfired faults for (peer, round); each is returned at
// most once per script.
func (s *Script) take(peer string, round int) []Fault {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Fault
	for i, f := range s.faults {
		if s.fired[i] || f.Round != round {
			continue
		}
		if f.Peer != "" && f.Peer != peer {
			continue
		}
		s.fired[i] = true
		out = append(out, f)
	}
	return out
}

// rngFor derives the deterministic random stream for one peer.
func (s *Script) rngFor(peer string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(peer))
	return rand.New(rand.NewSource(s.seed ^ int64(h.Sum64())))
}

// Wrap instruments one connection for the named peer.
func (s *Script) Wrap(peer string, conn net.Conn) *Conn {
	return &Conn{Conn: conn, script: s, peer: peer, rng: s.rngFor(peer)}
}

// DialFunc matches the transport's pluggable dialer signature.
type DialFunc func(network, addr string) (net.Conn, error)

// Dialer wraps base so every dialed connection is instrumented for peer.
func (s *Script) Dialer(peer string, base DialFunc) DialFunc {
	return func(network, addr string) (net.Conn, error) {
		conn, err := base(network, addr)
		if err != nil {
			return nil, err
		}
		return s.Wrap(peer, conn), nil
	}
}

// Listener wraps ln so accepted connections are instrumented, named
// "accept:<i>" in accept order.
func (s *Script) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, script: s}
}

// listener implements net.Listener with chaos instrumentation.
type listener struct {
	net.Listener
	script *Script
}

// Accept wraps the next connection with its accept-order peer name.
func (l *listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.script.mu.Lock()
	peer := fmt.Sprintf("accept:%d", l.script.accepted)
	l.script.accepted++
	l.script.mu.Unlock()
	return l.script.Wrap(peer, conn), nil
}

// Conn is a fault-injecting net.Conn. The transport announces protocol
// progress via MarkRound; armed faults then fire on the anchored operation.
type Conn struct {
	net.Conn
	script *Script
	peer   string

	mu           sync.Mutex
	rng          *rand.Rand
	pendingWrite []Fault
	pendingRead  []Fault
	severed      bool
}

// MarkRound arms this connection's faults scripted for round; an AtMark
// sever fires immediately.
func (c *Conn) MarkRound(round int) {
	for _, f := range c.script.take(c.peer, round) {
		if f.Kind == KillServer && f.anchor() == AtMark {
			c.script.kill()
			continue
		}
		switch f.anchor() {
		case AtMark:
			c.sever()
		case OnWrite:
			c.mu.Lock()
			c.pendingWrite = append(c.pendingWrite, f)
			c.mu.Unlock()
		case OnRead:
			c.mu.Lock()
			c.pendingRead = append(c.pendingRead, f)
			c.mu.Unlock()
		}
	}
}

// sever closes the underlying connection; subsequent I/O fails.
func (c *Conn) sever() {
	c.mu.Lock()
	c.severed = true
	c.mu.Unlock()
	closeConn(c.Conn)
}

// closeConn force-closes, using SetLinger(0) on TCP connections so the
// peer observes a reset rather than a clean shutdown.
func closeConn(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = conn.Close()
}

// Write applies pending write-anchored faults, then forwards.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.severed {
		c.mu.Unlock()
		return 0, ErrInjected
	}
	pending := c.pendingWrite
	c.pendingWrite = nil
	rng := c.rng
	c.mu.Unlock()

	for _, f := range pending {
		switch f.Kind {
		case Sever:
			c.sever()
			return 0, ErrInjected
		case KillServer:
			c.script.kill()
			c.sever() // the dead process's sockets reset
			return 0, ErrInjected
		case Delay:
			time.Sleep(f.Delay)
		case PartialWrite:
			n := f.Bytes
			if n <= 0 || n >= len(p) {
				n = rng.Intn(len(p)/2 + 1) // torn prefix, at most half
			}
			written, _ := c.Conn.Write(p[:n])
			c.sever()
			return written, ErrInjected
		}
	}
	return c.Conn.Write(p)
}

// Read applies pending read-anchored faults, then forwards.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.severed {
		c.mu.Unlock()
		return 0, ErrInjected
	}
	pending := c.pendingRead
	c.pendingRead = nil
	c.mu.Unlock()

	for _, f := range pending {
		switch f.Kind {
		case Sever, PartialWrite:
			c.sever()
			return 0, ErrInjected
		case KillServer:
			c.script.kill()
			c.sever()
			return 0, ErrInjected
		case Delay:
			time.Sleep(f.Delay)
		}
	}
	return c.Conn.Read(p)
}

// ParseSpec parses the -chaos flag syntax: semicolon-separated faults
//
//	[peer/]kind@round[:arg]
//
// where kind is sever, sever-write, sever-read, delay, partial, or
// kill-server; arg is the delay duration (delay) or prefix byte count
// (partial). Examples:
//
//	sever@3                        kill the connection at round 3
//	delay@4:500ms                  sleep 500ms before round 4's send
//	partial@2:16                   tear round 2's send after 16 bytes
//	accept:1/sever-write@5         server side: sever accepted conn 1
//	                               during round 5's broadcast write
//	kill-server@7                  crash the coordinator when round 7
//	                               is announced (needs an OnKill hook)
//
// Errors name the offending token and its 1-based position in the spec,
// so a long flag value pinpoints its own bad entry.
func ParseSpec(spec string) ([]Fault, error) {
	var out []Fault
	for pos, raw := range strings.Split(spec, ";") {
		part := strings.TrimSpace(raw)
		if part == "" {
			continue
		}
		f, err := parseFault(part)
		if err != nil {
			return nil, fmt.Errorf("chaos: fault %d (%q): %w", pos+1, part, err)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("chaos: empty fault spec %q", spec)
	}
	return out, nil
}

// parseFault parses one [peer/]kind@round[:arg] token.
func parseFault(part string) (Fault, error) {
	var f Fault
	if i := strings.LastIndex(part, "/"); i >= 0 {
		f.Peer, part = part[:i], part[i+1:]
	}
	kindArg, roundArg, ok := strings.Cut(part, "@")
	if !ok {
		return Fault{}, fmt.Errorf("missing @round")
	}
	roundStr, arg, hasArg := strings.Cut(roundArg, ":")
	round, err := strconv.Atoi(roundStr)
	if err != nil || round < 0 {
		return Fault{}, fmt.Errorf("invalid round %q", roundStr)
	}
	f.Round = round
	switch kindArg {
	case "sever":
		f.Kind = Sever
	case "sever-write":
		f.Kind, f.Op = Sever, OnWrite
	case "sever-read":
		f.Kind, f.Op = Sever, OnRead
	case "kill-server":
		f.Kind = KillServer
	case "delay":
		f.Kind = Delay
		if !hasArg {
			return Fault{}, fmt.Errorf("delay missing duration")
		}
		d, err := time.ParseDuration(arg)
		if err != nil {
			return Fault{}, fmt.Errorf("invalid delay %q: %w", arg, err)
		}
		f.Delay = d
	case "partial":
		f.Kind = PartialWrite
		if hasArg {
			n, err := strconv.Atoi(arg)
			if err != nil || n < 0 {
				return Fault{}, fmt.Errorf("invalid partial-write size %q", arg)
			}
			f.Bytes = n
		}
	default:
		return Fault{}, fmt.Errorf("unknown fault kind %q", kindArg)
	}
	if hasArg && f.Kind != Delay && f.Kind != PartialWrite {
		return Fault{}, fmt.Errorf("%s takes no :%s argument", kindArg, arg)
	}
	return f, nil
}
