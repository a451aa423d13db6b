// Command apf-client runs one federated-learning trainer against an
// apf-server. The client regenerates the shared synthetic dataset from
// (-model, -seed) and trains on its -shard of a -shards-way split.
//
// Example:
//
//	apf-client -addr host:7070 -model lenet -seed 42 -shard 0 -shards 3 -scheme apf
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"apf/internal/chaos"
	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/metrics"
	"apf/internal/preset"
	"apf/internal/stats"
	"apf/internal/telemetry"
	"apf/internal/telemetry/hooks"
	"apf/internal/transport"
	"apf/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "apf-client:", err)
		os.Exit(1)
	}
}

// run parses flags and executes one client session.
func run(args []string) error {
	fs := flag.NewFlagSet("apf-client", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7070", "server address")
		model     = fs.String("model", "lenet", "workload preset: lenet | lstm | mlp")
		seed      = fs.Int64("seed", 42, "shared seed (must match the server)")
		shard     = fs.Int("shard", 0, "this client's shard index")
		shards    = fs.Int("shards", 3, "total number of shards (= clients)")
		iters     = fs.Int("iters", 4, "local iterations per round (Fs)")
		scheme    = fs.String("scheme", "apf", "sync scheme: apf | none")
		codec     = fs.String("codec", "dense", "strongest payload codec to offer the server: dense | sparse | sparse-q16 (sparse codecs need -scheme apf)")
		alpha     = fs.Float64("dirichlet", 1.0, "Dirichlet concentration for the non-IID split")
		ioTimeout = fs.Duration("io-timeout", 30*time.Second, "per-message network read/write deadline")
		retries   = fs.Int("retries", 0, "reconnect attempts after a connection failure (0 = fail fast)")
		ckptDir   = fs.String("checkpoint-dir", "", "directory for periodic APF manager state exports (empty = none)")
		snapEvery = fs.Int("snapshot-every", 5, "export the manager state every K applied rounds")
		chaosSpec = fs.String("chaos", "", "fault-injection script, e.g. 'sever@3;delay@7:500ms' (testing)")
		chaosSeed = fs.Int64("chaos-seed", 1, "seed for randomized chaos choices")
	)
	obs := telemetry.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if obs.PrintVersion() {
		return nil
	}
	if *shard < 0 || *shard >= *shards {
		return fmt.Errorf("shard %d out of range [0,%d)", *shard, *shards)
	}
	if *ioTimeout <= 0 {
		return fmt.Errorf("-io-timeout must be positive, got %v", *ioTimeout)
	}
	if err := obs.Resolve(); err != nil {
		return err
	}

	p, err := preset.Load(*model, *seed)
	if err != nil {
		return err
	}
	// All clients derive the identical split from the shared seed, then
	// pick their own shard.
	parts := data.PartitionDirichlet(stats.SplitRNG(*seed, 1), p.Data.Labels, p.Data.Classes, *shards, *alpha)

	offer, err := wire.ParseCodec(*codec)
	if err != nil {
		return fmt.Errorf("-codec: %w", err)
	}
	if offer != wire.CodecDense && *scheme != "apf" {
		// Sparse framing is positional against the freezing mask; only the
		// APF manager exposes one. Fail here rather than at the handshake.
		return fmt.Errorf("-codec %s requires -scheme apf (sparse payloads encode against the freezing mask)", offer)
	}

	var manager fl.ManagerFactory
	var apfManager *core.Manager // captured for -checkpoint-dir exports
	switch *scheme {
	case "apf":
		manager = func(clientID, dim int) fl.SyncManager {
			cfg := preset.APFConfig(*seed)
			cfg.Dim, cfg.Observer = dim, hooks.Manager(obs.Metrics)
			m := core.NewManager(cfg)
			apfManager = m
			return m
		}
	case "none":
		manager = func(clientID, dim int) fl.SyncManager { return fl.NewPassthroughManager(4) }
	default:
		return fmt.Errorf("unknown scheme %q (want apf or none)", *scheme)
	}

	// Periodic manager export: every K applied rounds the freezing state
	// (EMAs, periods, mask) is framed to disk, so an operator can inspect
	// or archive a client's APF trajectory. Best-effort: an export failure
	// warns but never aborts training.
	var onRound func(round int, model []float64)
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
		every := *snapEvery
		if every <= 0 {
			every = 5
		}
		onRound = func(round int, model []float64) {
			if apfManager == nil || (round+1)%every != 0 {
				return
			}
			buf := core.EncodeState(apfManager.Snapshot())
			path := filepath.Join(*ckptDir, fmt.Sprintf("manager-%08d.ckpt", round+1))
			tmp := path + ".tmp"
			if err := os.WriteFile(tmp, buf, 0o644); err == nil {
				err = os.Rename(tmp, path)
				if err == nil {
					return
				}
			}
			fmt.Fprintf(os.Stderr, "apf-client: checkpoint export for round %d failed\n", round)
		}
	}

	name := fmt.Sprintf("shard-%d", *shard)
	var dial transport.DialFunc
	if *chaosSpec != "" {
		faults, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			return err
		}
		script := chaos.NewScript(*chaosSeed, faults...)
		dial = transport.DialFunc(script.Dialer(name, func(network, addr string) (net.Conn, error) {
			return net.DialTimeout(network, addr, 10*time.Second)
		}))
		fmt.Printf("apf-client: chaos script armed with %d fault(s)\n", len(faults))
	}

	stopObs, err := obs.Serve(func() []any {
		return []any{"client", name, "shard", *shard}
	})
	if err != nil {
		return err
	}
	defer stopObs()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("apf-client: shard %d/%d of %s, scheme %s, connecting to %s\n",
		*shard, *shards, *model, *scheme, *addr)
	res, err := transport.RunClient(ctx, transport.ClientConfig{
		Addr:       *addr,
		Name:       name,
		SessionKey: name,
		Model:      p.Model,
		Optimizer:  p.Optimizer,
		Manager:    manager,
		Data:       p.Data,
		Indices:    parts[*shard],
		LocalIters: *iters,
		BatchSize:  p.Batch,
		Seed:       *seed + int64(*shard),
		IOTimeout:  *ioTimeout,
		Codec:      offer,
		MaxRetries: *retries,
		Dial:       dial,
		OnRound:    onRound,
		Metrics:    obs.Metrics,
		Log:        obs.Log,
	})
	if err != nil {
		return err
	}
	fmt.Printf("apf-client: finished %d rounds as client %d — payload bytes up %s / down %s, wire bytes written %s / read %s\n",
		res.Rounds, res.ClientID,
		metrics.FormatBytes(res.UpBytes), metrics.FormatBytes(res.DownBytes),
		metrics.FormatBytes(res.WireWritten), metrics.FormatBytes(res.WireRead))
	if res.Reconnects > 0 {
		fmt.Printf("apf-client: resumed its session %d time(s)\n", res.Reconnects)
	}
	return nil
}
