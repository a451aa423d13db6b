package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"apf/internal/compress"
	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/nn"
	"apf/internal/opt"
	"apf/internal/stats"
	"apf/internal/wire"
)

// tinyModel builds a small model over flattened 6×6 images.
func tinyModel(rng *rand.Rand) *nn.Network {
	return nn.NewNetwork(
		nn.NewFlatten(),
		nn.NewDense(rng, "fc1", 36, 12),
		nn.NewTanh(),
		nn.NewDense(rng, "fc2", 12, 3),
	)
}

func tinySGD(p []*nn.Param) opt.Optimizer { return opt.NewSGD(p, 0.3, 0, 0) }

func passthrough(clientID, dim int) fl.SyncManager { return fl.NewPassthroughManager(4) }

// tinyTask is the small synthetic task most cluster tests train: 3-class
// 6×6 images (seed 5), IID shards, and tinyModel's seed-5 init vector.
type tinyTask struct {
	ds    *data.Dataset
	parts [][]int
	init  []float64
}

func newTinyTask(samples, clients int) tinyTask {
	ds := data.SynthImages(data.ImageConfig{Classes: 3, Channels: 1, Size: 6, Samples: samples, NoiseStd: 0.5, Seed: 5})
	return tinyTask{
		ds:    ds,
		parts: data.PartitionIID(stats.SplitRNG(5, 50), ds.Len(), clients),
		init:  nn.FlattenParams(tinyModel(stats.SplitRNG(5, 99)).Params(), nil),
	}
}

// clients returns one config per shard: client i, named and
// session-keyed "shard-i", trains tinyModel with tinySGD and mf's manager
// for three local iterations of batch 10 per round, seed 5.
func (k tinyTask) clients(mf fl.ManagerFactory) []ClientConfig {
	cfgs := make([]ClientConfig, len(k.parts))
	for i := range cfgs {
		name := fmt.Sprintf("shard-%d", i)
		cfgs[i] = ClientConfig{
			Name: name, SessionKey: name,
			Model: tinyModel, Optimizer: tinySGD, Manager: mf,
			Data: k.ds, Indices: k.parts[i], LocalIters: 3, BatchSize: 10, Seed: 5,
		}
	}
	return cfgs
}

// runSpec runs c within a minute, failing the test on any tier's error.
func runSpec(t *testing.T, c Cluster) *ClusterResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := RunCluster(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runCluster spins up a server and clients over loopback and returns the
// per-client results, the server and its final model.
func runCluster(t *testing.T, clients, rounds int, mf fl.ManagerFactory) ([]*ClientResult, *Server, []float64) {
	t.Helper()
	return runClusterWith(t, ServerConfig{NumClients: clients, Rounds: rounds}, mf, nil)
}

// runClusterWith is runCluster on a server configured by cfg beyond the
// task's init model, with edit, when non-nil, applied to each client's
// config.
func runClusterWith(t *testing.T, cfg ServerConfig, mf fl.ManagerFactory, edit func(i int, c *ClientConfig)) ([]*ClientResult, *Server, []float64) {
	t.Helper()
	task := newTinyTask(90, cfg.NumClients)
	cfg.Init = task.init
	cfgs := task.clients(mf)
	for i := range cfgs {
		if edit != nil {
			edit(i, &cfgs[i])
		}
	}
	res := runSpec(t, Cluster{Root: cfg, Clients: cfgs})
	return res.Clients, res.Root, res.Global
}

func TestTCPClusterWithPassthrough(t *testing.T) {
	results, _, global := runCluster(t, 3, 5, passthrough)

	// All clients end with the identical final model, equal to the
	// server's last aggregate.
	for c := 1; c < 3; c++ {
		for j := range results[0].FinalModel {
			if results[c].FinalModel[j] != results[0].FinalModel[j] {
				t.Fatalf("client %d model diverged at %d", c, j)
			}
		}
	}
	for j := range global {
		if math.Abs(global[j]-results[0].FinalModel[j]) > 1e-12 {
			t.Fatalf("server global differs from client model at %d", j)
		}
	}
	if results[0].Rounds != 5 {
		t.Errorf("rounds = %d, want 5", results[0].Rounds)
	}
}

func TestTCPClusterWithAPFSavesWireBytes(t *testing.T) {
	const clients, rounds = 2, 24
	apfFactory := func(clientID, dim int) fl.SyncManager {
		return core.NewManager(core.Config{
			Dim:              dim,
			CheckEveryRounds: 2,
			Threshold:        0.25,
			EMAAlpha:         0.9,
			Seed:             7,
		})
	}
	apfResults, apfSrv, _ := runCluster(t, clients, rounds, apfFactory)

	baseResults, baseSrv, _ := runCluster(t, clients, rounds, passthrough)

	// Manager-reported accounting must show savings...
	if apfResults[0].UpBytes >= baseResults[0].UpBytes {
		t.Errorf("APF reported up bytes %d not below baseline %d",
			apfResults[0].UpBytes, baseResults[0].UpBytes)
	}
	// ...and so must the real TCP byte counters, since frozen scalars
	// never enter the wire payload.
	apfRead, apfSent := apfSrv.WireBytes()
	baseRead, baseSent := baseSrv.WireBytes()
	if apfRead >= baseRead || apfSent >= baseSent {
		t.Errorf("APF wire bytes (r=%d s=%d) not below baseline (r=%d s=%d)",
			apfRead, apfSent, baseRead, baseSent)
	}

	// Clients stay consistent under compact payloads.
	for j := range apfResults[0].FinalModel {
		if apfResults[0].FinalModel[j] != apfResults[1].FinalModel[j] {
			t.Fatal("APF clients diverged over the real transport")
		}
	}
}

// TestRunReturnsSyncedModelUnderAPF: once APF freezes anything, every
// commit is mask-compacted and the newest full-length commit goes stale.
// With a shadow follower, Run still returns the model every client ends on.
func TestRunReturnsSyncedModelUnderAPF(t *testing.T) {
	const rounds = 12
	results, srv, global := runClusterWith(t, ServerConfig{NumClients: 3, Rounds: rounds, Shadow: resumeShadowConfig()}, apfChaosFactory, nil)
	if srv.ledger.dense != nil && srv.ledger.denseRound == rounds-1 {
		t.Fatal("the last commit is full-length: nothing froze, so nothing was elided")
	}
	for c, r := range results {
		requireSameModel(t, fmt.Sprintf("Run's model vs client %d", c), global, r.FinalModel)
	}
}

// closeGatedListener accepts connections whose Write of the GlobalMsg of
// one round — recognised by the frame's kind byte and the round in its
// first 8 body bytes — returns only once the connection has been closed:
// the peer has read the frame, hung up, and the server has already
// forgotten the connection when the Write that carried it returns.
type closeGatedListener struct {
	net.Listener
	round int
}

func (l closeGatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &closeGatedConn{Conn: c, round: uint64(l.round), closed: make(chan struct{})}, nil
}

type closeGatedConn struct {
	net.Conn
	round  uint64
	once   sync.Once
	closed chan struct{}
}

func (c *closeGatedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	const body = 10 // the wire header's length
	if err == nil && wire.FrameKind(p) == wire.KindGlobal && len(p) >= body+8 &&
		binary.LittleEndian.Uint64(p[body:]) == c.round {
		<-c.closed
	}
	return n, err
}

func (c *closeGatedConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestWireBytesCountLastFrame is the regression test for Server.WireBytes
// losing the last frame of a peer that closes fast: the server totals used
// to fold a connection's counters in when it forgot the connection, so a
// Write returning after that fold was never counted. Every client's final
// aggregate is written under exactly that schedule here; the server's
// totals must still equal what the clients measured from the other end.
func TestWireBytesCountLastFrame(t *testing.T) {
	const clients, rounds = 2, 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	results, srv, _ := runClusterWith(t, ServerConfig{
		Listener: closeGatedListener{Listener: ln, round: rounds - 1}, NumClients: clients, Rounds: rounds,
	}, passthrough, nil)
	var read, written int64
	for _, r := range results {
		read += r.WireRead
		written += r.WireWritten
	}
	srvRead, srvSent := srv.WireBytes()
	if srvSent != read || srvRead != written {
		t.Fatalf("server sent %d B and read %d B; its clients read %d B and wrote %d B", srvSent, srvRead, read, written)
	}
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{NumClients: 0, Rounds: 1, Init: []float64{1}}); err == nil {
		t.Error("accepted zero clients")
	}
	if _, err := NewServer(ServerConfig{NumClients: 1, Rounds: 0, Init: []float64{1}}); err == nil {
		t.Error("accepted zero rounds")
	}
	if _, err := NewServer(ServerConfig{NumClients: 1, Rounds: 1}); err == nil {
		t.Error("accepted empty init model")
	}
	for _, frac := range []float64{-0.1, 0.5, math.NaN()} {
		if _, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", NumClients: 3, Rounds: 1, Init: []float64{1}, TrimFraction: frac}); err == nil {
			t.Errorf("accepted trim fraction %v", frac)
		}
	}
	// A negative duration or count is refused, never read as its default
	// (or, for RoundDeadline, as the strict barrier).
	negative := map[string]func(*ServerConfig){
		"io timeout":     func(c *ServerConfig) { c.IOTimeout = -time.Second },
		"round deadline": func(c *ServerConfig) { c.RoundDeadline = -time.Millisecond },
		"min clients":    func(c *ServerConfig) { c.MinClients = -1 },
		"snapshot every": func(c *ServerConfig) { c.SnapshotEvery = -1 },
		"relays":         func(c *ServerConfig) { c.Relays = -1 },
	}
	for name, set := range negative {
		cfg := ServerConfig{Addr: "127.0.0.1:0", NumClients: 3, Rounds: 1, Init: []float64{1}}
		set(&cfg)
		srv, err := NewServer(cfg)
		if err == nil {
			srv.ln.Close()
			t.Errorf("accepted a negative %s", name)
		} else if !strings.Contains(err.Error(), "negative") {
			t.Errorf("negative %s: err = %v, want a negative-setting error", name, err)
		}
	}
}

func TestClientConfigValidation(t *testing.T) {
	_, err := RunClient(context.Background(), ClientConfig{LocalIters: 0, BatchSize: 1})
	if err == nil {
		t.Error("accepted zero local iters")
	}
	// Each row would dial a closed port if the config were accepted; the
	// refusal must come first and name the negative setting.
	negative := map[string]func(*ClientConfig){
		"io timeout":       func(c *ClientConfig) { c.IOTimeout = -time.Second },
		"max retries":      func(c *ClientConfig) { c.MaxRetries = -1 },
		"retry base delay": func(c *ClientConfig) { c.RetryBaseDelay = -time.Millisecond },
		"retry max delay":  func(c *ClientConfig) { c.RetryMaxDelay = -time.Millisecond },
	}
	for name, set := range negative {
		cfg := ClientConfig{Addr: "127.0.0.1:1", LocalIters: 1, BatchSize: 1}
		set(&cfg)
		_, err := RunClient(context.Background(), cfg)
		if err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("negative %s: err = %v, want a negative-setting error", name, err)
		}
	}
}

func TestClientContextCancellation(t *testing.T) {
	// A server that never answers: the client must honour cancellation.
	srv, err := NewServer(ServerConfig{
		Addr:       "127.0.0.1:0",
		NumClients: 2, // never fulfilled
		Rounds:     1,
		Init:       []float64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go srv.Run(ctx)

	ds := data.SynthImages(data.ImageConfig{Classes: 3, Channels: 1, Size: 6, Samples: 9, NoiseStd: 0.5, Seed: 5})
	done := make(chan error, 1)
	go func() {
		_, err := RunClient(ctx, ClientConfig{
			Addr:       srv.Addr().String(),
			Model:      tinyModel,
			Optimizer:  tinySGD,
			Manager:    passthrough,
			Data:       ds,
			Indices:    []int{0, 1, 2},
			LocalIters: 1,
			BatchSize:  3,
		})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("client returned nil error after cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client did not return after cancellation")
	}
}

// TestWeightedMean checks the exact weighted mean of two updates' payloads.
func TestWeightedMean(t *testing.T) {
	ups := []*UpdateMsg{
		{Payload: []float64{1, 2}, Weight: 1},
		{Payload: []float64{3, 6}, Weight: 3},
	}
	agg := fl.NewAggregator(1)
	defer agg.Close()
	agg.Open(0, len(ups))
	for id, u := range ups {
		if err := agg.Add(id, u.Payload, u.Weight); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]float64, 2)
	if _, ok := agg.Reduce(out); !ok {
		t.Fatal("Reduce reported nothing to aggregate")
	}
	if out[0] != 2.5 || out[1] != 5 {
		t.Errorf("aggregate = %v, want [2.5 5]", out)
	}
}

func TestTCPClusterWithQuantizedAPF(t *testing.T) {
	// APF wrapped in fp16 quantization must still ride the compact codec
	// (fl.As finds the codec through the wrapper's Unwrap) and keep the
	// clients consistent.
	mf := func(clientID, dim int) fl.SyncManager {
		return compress.NewQuantized(core.NewManager(core.Config{
			Dim:              dim,
			CheckEveryRounds: 2,
			Threshold:        0.25,
			EMAAlpha:         0.9,
			Seed:             13,
		}))
	}
	results, srv, _ := runCluster(t, 2, 16, mf)
	for j := range results[0].FinalModel {
		if results[0].FinalModel[j] != results[1].FinalModel[j] {
			t.Fatal("quantized APF clients diverged over TCP")
		}
	}
	read, sent := srv.WireBytes()
	if read <= 0 || sent <= 0 {
		t.Fatal("no traffic recorded")
	}
	// Reported payload bytes reflect both compressions (mask + fp16).
	full := int64(len(results[0].FinalModel) * 4 * 16)
	if results[0].UpBytes >= full/2+1 {
		t.Errorf("reported up bytes %d not below fp16 ceiling %d", results[0].UpBytes, full/2)
	}
}

// TestServerFloodCannotGrowPayloadPool: a client flooding one round with
// copies of its update makes the server decode every copy into a pooled
// vector and hand each straight back, yet the free list never holds more
// than one vector per peer, and the round commits the first copy.
func TestServerFloodCannotGrowPayloadPool(t *testing.T) {
	srv := startServer(t, 2, 1)
	done := make(chan error, 1)
	var final []float64
	go func() {
		var err error
		final, err = srv.Run(context.Background())
		done <- err
	}()
	a, b := dialRaw(t, srv.Addr().String()), dialRaw(t, srv.Addr().String())
	defer a.conn.Close()
	defer b.conn.Close()
	a.send(&JoinMsg{Name: "flooder"})
	a.welcome()
	b.send(&JoinMsg{Name: "honest"})
	b.welcome()
	for i := 0; i < 40; i++ {
		a.send(&UpdateMsg{Round: 0, Payload: []float64{1, 2, float64(3 + i)}, Weight: 1})
		if n, c := len(srv.payloads.free), cap(srv.payloads.free); n > c || c != 2 {
			t.Fatalf("free list holds %d of capacity %d, want at most one per peer (2)", n, c)
		}
	}
	b.send(&UpdateMsg{Round: 0, Payload: []float64{3, 4, 5}, Weight: 1})
	a.global()
	b.global()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if final[0] != 2 || final[1] != 3 || final[2] != 4 {
		t.Errorf("final model %v, want the mean of the first copy and the honest update", final)
	}
	if n := len(srv.payloads.free); n > 2 {
		t.Errorf("free list holds %d vectors after the run, want at most 2", n)
	}
}

// severFirstUpdate fails a connection's first update write, as a socket
// dying under the push would, and records every update frame written: its
// first byte's address and a copy of its bytes.
type severFirstUpdate struct {
	net.Conn
	mu     *sync.Mutex
	at     *[]*byte
	frames *[][]byte
}

func (c *severFirstUpdate) Write(b []byte) (int, error) {
	if wire.FrameKind(b) == wire.KindUpdate {
		c.mu.Lock()
		first := len(*c.at) == 0
		*c.at = append(*c.at, &b[0])
		*c.frames = append(*c.frames, append([]byte(nil), b...))
		c.mu.Unlock()
		if first {
			c.Conn.Close()
			return 0, net.ErrClosed
		}
	}
	return c.Conn.Write(b)
}

// TestClientResendWritesSameFrame pins the client's upload: the in-flight
// update is kept as its encoded frame, so the re-send after a reconnect
// writes the very same buffer — same address, same bytes — without
// training or encoding again.
func TestClientResendWritesSameFrame(t *testing.T) {
	task := newTinyTask(30, 1)
	ds, init := task.ds, task.init
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", NumClients: 1, Rounds: 1, Init: init, RoundDeadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		serverErr <- err
	}()
	var mu sync.Mutex
	var at []*byte
	var frames [][]byte
	cfg := passthroughClient(srv.Addr().String(), ds, []int{0, 1, 2, 3})
	cfg.SessionKey, cfg.MaxRetries, cfg.RetryBaseDelay = "resender", 3, time.Millisecond
	cfg.Dial = func(network, addr string) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, 5*time.Second)
		return &severFirstUpdate{Conn: conn, mu: &mu, at: &at, frames: &frames}, err
	}
	res, err := RunClient(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	if res.Reconnects != 1 || len(at) != 2 {
		t.Fatalf("%d reconnect(s), %d update write(s); want one severed push and its re-send", res.Reconnects, len(at))
	}
	if at[1] != at[0] || !bytes.Equal(frames[1], frames[0]) {
		t.Error("the re-send wrote another frame than the severed push")
	}
}
