package transport

import (
	"context"
	"errors"
	"math"
	"math/rand"
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

// runCluster spins up a server and clients over loopback and returns the
// per-client results and the server.
func runCluster(t *testing.T, clients, rounds int, mf fl.ManagerFactory) ([]*ClientResult, *Server, []float64) {
	t.Helper()
	ds := data.SynthImages(data.ImageConfig{Classes: 3, Channels: 1, Size: 6, Samples: 90, NoiseStd: 0.5, Seed: 5})
	rng := stats.SplitRNG(5, 50)
	parts := data.PartitionIID(rng, ds.Len(), clients)

	initNet := tinyModel(stats.SplitRNG(5, 99))
	init := nn.FlattenParams(initNet.Params(), nil)

	srv, err := NewServer(ServerConfig{
		Addr:       "127.0.0.1:0",
		NumClients: clients,
		Rounds:     rounds,
		Init:       init,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var serverGlobal []float64
	serverErr := make(chan error, 1)
	go func() {
		g, err := srv.Run(ctx)
		serverGlobal = g
		serverErr <- err
	}()

	results := make([]*ClientResult, clients)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		for srv.Sessions() < i {
			time.Sleep(time.Millisecond) // join order = shard order: ids, and so trajectories, repeat
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunClient(ctx, ClientConfig{
				Addr:       srv.Addr().String(),
				Name:       "client",
				Model:      tinyModel,
				Optimizer:  tinySGD,
				Manager:    mf,
				Data:       ds,
				Indices:    parts[i],
				LocalIters: 3,
				BatchSize:  10,
				Seed:       5,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	return results, srv, serverGlobal
}

func TestTCPClusterWithPassthrough(t *testing.T) {
	mf := func(clientID, dim int) fl.SyncManager { return fl.NewPassthroughManager(4) }
	results, _, global := runCluster(t, 3, 5, mf)

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

	baseFactory := func(clientID, dim int) fl.SyncManager { return fl.NewPassthroughManager(4) }
	baseResults, baseSrv, _ := runCluster(t, clients, rounds, baseFactory)

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
}

func TestClientConfigValidation(t *testing.T) {
	_, err := RunClient(context.Background(), ClientConfig{LocalIters: 0, BatchSize: 1})
	if err == nil {
		t.Error("accepted zero local iters")
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
			Manager:    func(int, int) fl.SyncManager { return fl.NewPassthroughManager(4) },
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

func TestCheckUpdatesAndWeightedMean(t *testing.T) {
	ups := []*UpdateMsg{
		{Payload: []float64{1, 2}, Weight: 1},
		{Payload: []float64{3, 6}, Weight: 3},
	}
	if err := checkUpdates(0, ups); err != nil {
		t.Fatal(err)
	}
	agg := fl.NewAggregator(1)
	defer agg.Close()
	out := make([]float64, 2)
	if !agg.WeightedMean(out, [][]float64{ups[0].Payload, ups[1].Payload}, []float64{1, 3}) {
		t.Fatal("WeightedMean reported nothing to aggregate")
	}
	if out[0] != 2.5 || out[1] != 5 {
		t.Errorf("aggregate = %v, want [2.5 5]", out)
	}

	if err := checkUpdates(0, nil); err == nil {
		t.Error("accepted empty updates")
	}
	if err := checkUpdates(0, []*UpdateMsg{nil, nil}); err == nil {
		t.Error("accepted all-absent updates")
	}
	if err := checkUpdates(0, []*UpdateMsg{{Payload: []float64{1}}, {Payload: []float64{1, 2}}}); err == nil {
		t.Error("accepted mismatched payload lengths")
	}
	if err := checkUpdates(0, []*UpdateMsg{{Payload: []float64{1}, Weight: -1}}); err == nil {
		t.Error("accepted negative weight")
	}
	if err := checkUpdates(0, []*UpdateMsg{{Payload: []float64{1}, Weight: math.NaN()}}); err == nil {
		t.Error("accepted NaN weight")
	}
	// Partial rounds skip absent clients.
	if err := checkUpdates(0, []*UpdateMsg{nil, {Payload: []float64{1}, Weight: 1}}); err != nil {
		t.Errorf("rejected a valid partial round: %v", err)
	}
	// Mask divergence is a typed error.
	err := checkUpdates(0, []*UpdateMsg{
		{Payload: []float64{1}, Weight: 1, MaskHash: 7},
		{Payload: []float64{2}, Weight: 1, MaskHash: 8},
	})
	if !errors.Is(err, ErrMaskDivergence) {
		t.Errorf("expected ErrMaskDivergence, got %v", err)
	}
}

func TestTCPClusterWithQuantizedAPF(t *testing.T) {
	// APF wrapped in fp16 quantization must still ride the compact codec
	// (the wrapper delegates CompactUpload/ExpandDownload) and keep the
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
