package chaos

import (
	"context"
	"net"
	"sync"
	"time"
)

// Gate is a dialer steered by cues a Script cannot name: Cut severs the
// live connection and holds every later dial until the gate opens (Open,
// or once the condition given to OpenWhen holds); Refuse fails every later
// dial instead. A held dial gives up when the gate's context ends.
type Gate struct {
	ctx context.Context

	mu     sync.Mutex
	conn   net.Conn
	dials  int
	held   bool
	when   func() bool
	refuse error
}

// NewGate returns an open gate whose held dials end with ctx.
func NewGate(ctx context.Context) *Gate { return &Gate{ctx: ctx} }

// Dial implements the transport's dialer signature over TCP (5s connect
// timeout), remembering the connection so Cut can sever it.
func (g *Gate) Dial(network, addr string) (net.Conn, error) {
	g.mu.Lock()
	g.dials++
	refuse := g.refuse
	g.mu.Unlock()
	if refuse != nil {
		return nil, refuse
	}
	for !g.open() {
		select {
		case <-g.ctx.Done():
			return nil, g.ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	c, err := net.DialTimeout(network, addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	g.conn = c
	g.mu.Unlock()
	return c, nil
}

// open reports whether a dial may proceed.
func (g *Gate) open() bool {
	g.mu.Lock()
	held, when := g.held, g.when
	g.mu.Unlock()
	return !held || (when != nil && when())
}

// Cut closes the live connection and holds every later dial.
func (g *Gate) Cut() {
	g.mu.Lock()
	g.held = true
	c := g.conn
	g.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// Open releases held dials.
func (g *Gate) Open() {
	g.mu.Lock()
	g.held = false
	g.mu.Unlock()
}

// OpenWhen releases held dials once cond holds; a held dial polls it
// every millisecond.
func (g *Gate) OpenWhen(cond func() bool) {
	g.mu.Lock()
	g.when = cond
	g.mu.Unlock()
}

// Refuse fails every later dial with err.
func (g *Gate) Refuse(err error) {
	g.mu.Lock()
	g.refuse = err
	g.mu.Unlock()
}

// Dials returns how many dials the gate has seen, refused ones included.
func (g *Gate) Dials() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.dials
}
