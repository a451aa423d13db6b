package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// lateListener hands the k-th accepted connection (from 0) to the server
// after (n-k)·step, so connections dialled close together reach it
// last-first.
type lateListener struct {
	net.Listener
	conns     chan net.Conn
	done      chan struct{}
	closeOnce sync.Once
}

func newLateListener(inner net.Listener, n int, step time.Duration) *lateListener {
	l := &lateListener{Listener: inner, conns: make(chan net.Conn), done: make(chan struct{})}
	go func() {
		for k := 0; ; k++ {
			c, err := inner.Accept()
			if err != nil {
				return
			}
			go func() {
				select {
				case <-time.After(time.Duration(n-k) * step):
				case <-l.done:
				}
				select {
				case l.conns <- c:
				case <-l.done:
					c.Close()
				}
			}()
		}
	}()
	return l
}

func (l *lateListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *lateListener) Close() error {
	l.closeOnce.Do(func() { close(l.done) })
	return l.Listener.Close()
}

// TestRunClientsLaunchesInSlotOrder: a listener that reorders connections
// arriving together cannot reorder the launcher's clients, because client
// i+1 dials only once client i holds its Welcome. Every slot gets its own
// index as its id.
func TestRunClientsLaunchesInSlotOrder(t *testing.T) {
	const clients = 6
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	results, _, _ := runClusterWith(t, ServerConfig{
		Listener: newLateListener(inner, clients, 20*time.Millisecond), NumClients: clients, Rounds: 1,
	}, passthrough, nil)
	for i, res := range results {
		if res.ClientID != i {
			t.Errorf("slot %d got client id %d", i, res.ClientID)
		}
	}
}

// TestRunClientsPassesClientThatNeverJoins: a client whose dial fails for
// good returns without a Welcome; the launcher starts the next slot anyway
// and returns once the rest of the cluster has run.
func TestRunClientsPassesClientThatNeverJoins(t *testing.T) {
	task := newTinyTask(60, 3)
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", NumClients: 2, Rounds: 2, Init: task.init})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		serverErr <- err
	}()
	unreachable := errors.New("unreachable")
	cfgs := task.clients(srv.Addr().String(), passthrough)
	cfgs[1].Dial = func(string, string) (net.Conn, error) { return nil, unreachable }

	var results []*ClientResult
	var errs []error
	done := make(chan struct{})
	go func() {
		defer close(done)
		results, errs = RunClients(ctx, cfgs)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("RunClients hung behind a client that never joined")
	}
	if !errors.Is(errs[1], unreachable) || results[1] != nil {
		t.Errorf("slot 1: result %v, error %v; want no result and the dial error", results[1], errs[1])
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Fatalf("slot %d: %v", i, errs[i])
		}
	}
	if results[0].ClientID != 0 || results[2].ClientID != 1 {
		t.Errorf("slots 0 and 2 got ids %d and %d, want 0 and 1", results[0].ClientID, results[2].ClientID)
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}
