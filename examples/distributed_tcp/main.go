// Real distributed federated learning over TCP: this example starts the
// aggregation server and three trainer clients (as goroutines, over
// loopback — the same code paths cmd/apf-server and cmd/apf-client use
// across machines) and shows APF's compact payloads saving real wire
// bytes, not just modeled ones.
//
// Run with:
//
//	go run ./examples/distributed_tcp
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/metrics"
	"apf/internal/nn"
	"apf/internal/opt"
	"apf/internal/stats"
	"apf/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distributed_tcp:", err)
		os.Exit(1)
	}
}

// run launches one cluster with APF and one without, comparing measured
// TCP bytes.
func run() error {
	const (
		seed    = 3
		clients = 3
		rounds  = 80
	)
	pool := data.SynthImages(data.ImageConfig{
		Classes: 6, Channels: 1, Size: 10, Samples: 360, NoiseStd: 0.7, Seed: seed,
	})
	parts := data.PartitionDirichlet(stats.SplitRNG(seed, 1), pool.Labels, pool.Classes, clients, 1.0)

	model := func(rng *rand.Rand) *nn.Network {
		return nn.NewNetwork(
			nn.NewFlatten(),
			nn.NewDense(rng, "fc1", 100, 32),
			nn.NewTanh(),
			nn.NewDense(rng, "fc2", 32, 6),
		)
	}
	optimizer := func(p []*nn.Param) opt.Optimizer { return opt.NewSGD(p, 0.3, 0, 0) }

	apf := func(_, dim int) fl.SyncManager {
		return core.NewManager(core.Config{
			Dim: dim, CheckEveryRounds: 1, Threshold: 0.3, EMAAlpha: 0.9, Seed: seed,
		})
	}
	vanilla := func(_, _ int) fl.SyncManager { return fl.NewPassthroughManager(4) }

	fmt.Println("running TCP cluster with APF...")
	apfRead, apfSent, err := runCluster(pool, parts, model, optimizer, apf, clients, rounds, seed)
	if err != nil {
		return err
	}
	fmt.Println("running TCP cluster without APF...")
	baseRead, baseSent, err := runCluster(pool, parts, model, optimizer, vanilla, clients, rounds, seed)
	if err != nil {
		return err
	}

	fmt.Println("\nmeasured TCP bytes at the server:")
	fmt.Printf("  APF:     received %-12s sent %s\n", metrics.FormatBytes(apfRead), metrics.FormatBytes(apfSent))
	fmt.Printf("  vanilla: received %-12s sent %s\n", metrics.FormatBytes(baseRead), metrics.FormatBytes(baseSent))
	fmt.Printf("  wire saving: %.1f%% received, %.1f%% sent\n",
		100*(1-float64(apfRead)/float64(baseRead)),
		100*(1-float64(apfSent)/float64(baseSent)))
	return nil
}

// runCluster starts one server and its clients, waits for completion, and
// returns the server-side wire byte counters.
func runCluster(pool *data.Dataset, parts [][]int, model fl.ModelFactory, optimizer fl.OptimizerFactory, mf fl.ManagerFactory, clients, rounds int, seed int64) (read, sent int64, err error) {
	initNet := model(stats.SplitRNG(seed, 1000))
	init := nn.FlattenParams(initNet.Params(), nil)

	cfgs := make([]transport.ClientConfig, clients)
	for i := range cfgs {
		cfgs[i] = transport.ClientConfig{
			Name:       fmt.Sprintf("client-%d", i),
			Model:      model,
			Optimizer:  optimizer,
			Manager:    mf,
			Data:       pool,
			Indices:    parts[i],
			LocalIters: 3,
			BatchSize:  16,
			Seed:       seed,
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := transport.RunCluster(ctx, transport.Cluster{
		Root:    transport.ServerConfig{NumClients: clients, Rounds: rounds, Init: init},
		Clients: cfgs,
	})
	if err != nil {
		return 0, 0, err
	}
	read, sent = res.Root.WireBytes()
	return read, sent, nil
}
