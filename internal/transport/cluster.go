package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"apf/internal/chaos"
)

// Cluster describes one in-process cluster as plain configs: a root, the
// relays under it, and the clients. StartCluster fills in what only a
// running cluster knows — listen addresses, each relay's Upstream, each
// client's Addr — so a description names no port.
type Cluster struct {
	// Root configures the root: the flat coordinator when Relays is empty,
	// the hierarchy's root otherwise (its Relays is set to len(Relays)).
	// An empty Addr with no Listener binds loopback.
	Root ServerConfig
	// Relays configures each relay. An empty Addr with no Listener binds
	// loopback; Upstream is set to the root's address.
	Relays []RelayConfig
	// Clients configures each client; Addr is set to the address of the
	// tier its slot dials: the relays take the slots in order, each its
	// NumClients, and without relays every client dials the root. Clients
	// launch in slot order, client i+1 once client i holds its first
	// Welcome (or has returned), so each tier numbers its clients by slot.
	Clients []ClientConfig
	// Chaos, when non-nil, injects its faults: every client's dialer is
	// wrapped under the client's Name, every relay's upstream dialer under
	// the relay's Name, and the root's listener names its connections
	// "accept:<i>". A KillServer fault cancels the root, which is then
	// rebound on the same address from the same config (a CheckpointDir
	// makes it recover); the script's OnKill hook is the harness's.
	Chaos *chaos.Script
}

// ClusterResult is what a finished cluster left: the final root (the last
// one after any restarts) and every tier's outcome, with per-tier errors.
type ClusterResult struct {
	Root     *Server
	Global   []float64
	RootErr  error
	Restarts int

	Relays       []*Relay
	RelayGlobals [][]float64
	RelayErrs    []error

	// Clients and ClientErrs are indexed by slot.
	Clients    []*ClientResult
	ClientErrs []error
}

// err joins every tier's error, each labelled with its tier.
func (r *ClusterResult) err() error {
	var errs []error
	if r.RootErr != nil {
		errs = append(errs, fmt.Errorf("root: %w", r.RootErr))
	}
	for i, err := range r.RelayErrs {
		if err != nil {
			errs = append(errs, fmt.Errorf("relay %d: %w", i, err))
		}
	}
	for i, err := range r.ClientErrs {
		if err != nil {
			errs = append(errs, fmt.Errorf("client %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// ClusterRun is a started cluster. Root is safe to call while it runs;
// Wait joins it.
type ClusterRun struct {
	spec   Cluster
	wg     sync.WaitGroup
	cancel context.CancelFunc

	mu   sync.Mutex
	root *Server
	kill context.CancelFunc

	res ClusterResult
}

// RunCluster starts the cluster and waits for every tier to return. The
// error is a build failure, or, as from Wait, every tier's error; the
// result, non-nil once the cluster started, holds each tier's outcome
// either way.
func RunCluster(ctx context.Context, c Cluster) (*ClusterResult, error) {
	run, err := StartCluster(ctx, c)
	if err != nil {
		return nil, err
	}
	return run.Wait()
}

// StartCluster builds and starts the cluster root first: the root, then
// each relay pointed at it, then the slot-ordered client launch. Every
// goroutine it starts ends before Wait returns.
func StartCluster(ctx context.Context, c Cluster) (*ClusterRun, error) {
	r := &ClusterRun{spec: c}
	if len(c.Relays) > 0 {
		r.spec.Root.Relays = len(c.Relays)
	}
	if c.Chaos != nil {
		c.Chaos.SetOnKill(r.killRoot)
	}
	root, err := r.bindRoot(r.spec.Root.Addr, r.spec.Root.Listener)
	if err != nil {
		return nil, err
	}
	r.root = root
	ctx, r.cancel = context.WithCancel(ctx)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.serveRoot(ctx, root)
	}()

	upstream := root.Addr().String()
	n := len(c.Relays)
	r.res.Relays, r.res.RelayGlobals, r.res.RelayErrs = make([]*Relay, n), make([][]float64, n), make([]error, n)
	for i, cfg := range c.Relays {
		if cfg.Addr == "" && cfg.Listener == nil {
			cfg.Addr = "127.0.0.1:0"
		}
		cfg.Upstream = upstream
		if c.Chaos != nil {
			cfg.Dial = DialFunc(c.Chaos.Dialer(cfg.Name, chaos.DialFunc(orDefault(cfg.Dial))))
		}
		rel, err := NewRelay(cfg)
		if err != nil {
			r.cancel()
			_, _ = r.Wait()
			return nil, fmt.Errorf("relay %d: %w", i, err)
		}
		r.res.Relays[i] = rel
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.res.RelayGlobals[i], r.res.RelayErrs[i] = rel.Run(ctx)
		}()
	}

	cfgs := append([]ClientConfig(nil), c.Clients...)
	for i := range cfgs {
		cfg := &cfgs[i]
		cfg.Addr = upstream
		if tier := r.tier(i); tier >= 0 {
			cfg.Addr = r.res.Relays[tier].Addr().String()
		}
		if c.Chaos != nil {
			cfg.Dial = DialFunc(c.Chaos.Dialer(cfg.Name, chaos.DialFunc(orDefault(cfg.Dial))))
		}
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.res.Clients, r.res.ClientErrs = launchClients(ctx, cfgs)
	}()
	return r, nil
}

// tier returns the relay client slot i dials, or -1 for the root.
func (r *ClusterRun) tier(i int) int {
	for tier, rel := range r.spec.Relays {
		if i < rel.NumClients {
			return tier
		}
		i -= rel.NumClients
	}
	return -1
}

// orDefault returns dial, or the default TCP dialer when it is nil.
func orDefault(dial DialFunc) DialFunc {
	if dial != nil {
		return dial
	}
	return func(network, addr string) (net.Conn, error) {
		return net.DialTimeout(network, addr, dialTimeout)
	}
}

// bindRoot builds a root from the spec's config on ln, or else on addr
// (loopback when empty), behind the chaos listener when the spec has a
// script.
func (r *ClusterRun) bindRoot(addr string, ln net.Listener) (*Server, error) {
	cfg := r.spec.Root
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	cfg.Addr, cfg.Listener = addr, ln
	if r.spec.Chaos != nil {
		if ln == nil {
			var err error
			if ln, err = net.Listen("tcp", addr); err != nil {
				return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
			}
		}
		cfg.Listener = r.spec.Chaos.Listener(ln)
	}
	srv, err := NewServer(cfg)
	if err != nil && cfg.Listener != nil {
		closeQuietly(cfg.Listener)
	}
	return srv, err
}

// serveRoot runs the root, and after every scripted kill rebinds it on
// the same address and runs it again, until a root returns on its own.
func (r *ClusterRun) serveRoot(ctx context.Context, srv *Server) {
	addr := srv.Addr().String()
	for {
		rootCtx, kill := context.WithCancel(ctx)
		r.mu.Lock()
		r.kill = kill
		r.mu.Unlock()
		global, err := srv.Run(rootCtx)
		killed := rootCtx.Err() != nil && ctx.Err() == nil
		kill()
		if err == nil || !killed {
			r.res.Global, r.res.RootErr = global, err
			return
		}
		if srv, err = r.bindRoot(addr, nil); err != nil {
			r.res.RootErr = fmt.Errorf("restart: %w", err)
			return
		}
		r.mu.Lock()
		r.root = srv
		r.res.Restarts++
		r.mu.Unlock()
	}
}

// killRoot is the chaos script's OnKill hook: it cancels the running root.
func (r *ClusterRun) killRoot() {
	r.mu.Lock()
	kill := r.kill
	r.mu.Unlock()
	if kill != nil {
		kill()
	}
}

// Root returns the running root: after a scripted kill, the one rebound
// in its place.
func (r *ClusterRun) Root() *Server {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.root
}

// Wait blocks until every tier has returned and reports their outcomes,
// with every tier's error joined and labelled by its tier.
func (r *ClusterRun) Wait() (*ClusterResult, error) {
	r.wg.Wait()
	r.cancel()
	r.res.Root = r.Root()
	return &r.res, r.res.err()
}

// launchClients runs one client per config and returns once every one of
// them has returned, with results and errors indexed by slot. It starts
// client i+1 only after client i holds its first Welcome, or has returned.
// A tier above — flat server, root or relay — numbers sessions in
// registration order, so when every client joins, slot i gets id i: the
// id that keys fl.Replica's RNG streams, and so the trajectory a
// simulator or a twin cluster reproduces.
func launchClients(ctx context.Context, cfgs []ClientConfig) ([]*ClientResult, []error) {
	results := make([]*ClientResult, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		joined, returned := make(chan struct{}), make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(returned)
			results[i], errs[i] = runClient(ctx, cfgs[i], func() { close(joined) })
		}()
		select {
		case <-joined:
		case <-returned:
		}
	}
	wg.Wait()
	return results, errs
}
