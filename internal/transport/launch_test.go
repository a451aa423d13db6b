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
	unreachable := errors.New("unreachable")
	cfgs := task.clients(passthrough)
	cfgs[1].Dial = func(string, string) (net.Conn, error) { return nil, unreachable }

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	res, err := RunCluster(ctx, Cluster{
		Root:    ServerConfig{NumClients: 2, Rounds: 2, Init: task.init},
		Clients: cfgs,
	})
	if res == nil {
		t.Fatal(err)
	}
	if ctx.Err() != nil {
		t.Fatal("the launcher hung behind a client that never joined")
	}
	if !errors.Is(res.ClientErrs[1], unreachable) || res.Clients[1] != nil {
		t.Errorf("slot 1: result %v, error %v; want no result and the dial error", res.Clients[1], res.ClientErrs[1])
	}
	for _, i := range []int{0, 2} {
		if res.ClientErrs[i] != nil {
			t.Fatalf("slot %d: %v", i, res.ClientErrs[i])
		}
	}
	if res.Clients[0].ClientID != 0 || res.Clients[2].ClientID != 1 {
		t.Errorf("slots 0 and 2 got ids %d and %d, want 0 and 1", res.Clients[0].ClientID, res.Clients[2].ClientID)
	}
	if res.RootErr != nil {
		t.Fatalf("server: %v", res.RootErr)
	}
}
