// Command apf-relay runs one edge pre-aggregator of the two-tier
// topology. Downward it is a full aggregation server — clients connect
// with apf-client exactly as they would to a flat apf-server, with the
// same codec negotiation, sanitization, durability, and fault-tolerance
// options. Upward it joins an apf-server started with -relays, streams
// one exact fixed-point partial sum per round, and re-broadcasts the
// root's committed aggregate, so the training trajectory is bit-identical
// to a flat deployment over the same clients.
//
// The run geometry (model dimension, rounds, initial weights) comes from
// the root's welcome: only the root needs -model and -seed.
//
// Example (one root, two relays, two clients each):
//
//	apf-server -addr :7070 -relays 2 -rounds 50 -model lenet -seed 42
//	apf-relay  -addr :7171 -upstream host:7070 -name edge-a -clients 2
//	apf-relay  -addr :7272 -upstream host:7070 -name edge-b -clients 2
//	apf-client -addr host:7171 -model lenet -seed 42 -shard 0 -shards 4 -scheme apf
//	...
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"apf/internal/core"
	"apf/internal/metrics"
	"apf/internal/telemetry"
	"apf/internal/transport"
	"apf/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "apf-relay:", err)
		os.Exit(1)
	}
}

// run parses flags and serves one relay session.
func run(args []string) error {
	fs := flag.NewFlagSet("apf-relay", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":7171", "downward listen address for client sessions")
		upstream   = fs.String("upstream", "127.0.0.1:7070", "root coordinator address (an apf-server started with -relays)")
		name       = fs.String("name", "relay", "relay name, also the upstream session key (must be unique per relay)")
		clients    = fs.Int("clients", 3, "number of clients this relay terminates")
		ioTimeout  = fs.Duration("io-timeout", 30*time.Second, "per-message network deadline on both faces; upstream it must exceed the root's full round time")
		deadline   = fs.Duration("deadline", 0, "downward round deadline enabling partial aggregation and session resume (0 = strict barrier)")
		minClients = fs.Int("min-clients", 1, "minimum updates before a round deadline may aggregate")
		ckptDir    = fs.String("checkpoint-dir", "", "directory for the downward face's durable snapshot + WAL (empty = not durable)")
		snapEvery  = fs.Int("snapshot-every", 5, "rotate the checkpoint snapshot every K committed rounds")
		histRounds = fs.Int("history-rounds", 0, "cap the downward face's aggregate replay history to this many rounds, bounding relay memory; clients absent past the cap catch up via sketch reconciliation or a snapshot instead of replay (0 = unbounded)")
		shadow     = fs.Bool("shadow", false, "maintain a shadow APF replica of the client trajectory (requires clients with -scheme apf and the same -seed), enabling stateful O(diff) sketch catch-up for clients absent past -history-rounds")
		maxNorm    = fs.Float64("max-norm-mult", 0, "arm this edge's update sanitization pipeline, striking updates whose L2 norm exceeds this multiple of the rolling median (0 = off); in a hierarchy per-client defenses live on the relays, never the root")
		cosFloor   = fs.Float64("cosine-floor", 0, "with sanitization armed, also strike updates whose cosine against the decayed reference direction falls below this floor (0 = direction gate off)")
		roundNorm  = fs.Float64("round-norm-mult", 0, "with sanitization armed, also strike accepted updates after the round when their norm exceeds this multiple of the round median (0 = off)")
		codec      = fs.String("codec", "dense", "strongest payload codec to offer client sessions: dense | sparse | sparse-q16 (with a q16 edge, start the root with the same -codec so its commits stay lossless)")
		retries    = fs.Int("retries", 3, "upstream reconnect attempts after a connection failure")
		seed       = fs.Int64("seed", 42, "seed for the upstream backoff jitter stream")
	)
	obs := telemetry.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if obs.PrintVersion() {
		return nil
	}
	if *ioTimeout <= 0 {
		return fmt.Errorf("-io-timeout must be positive, got %v", *ioTimeout)
	}
	if err := obs.Resolve(); err != nil {
		return err
	}

	var validator *transport.ValidatorConfig
	if *maxNorm > 0 {
		validator = &transport.ValidatorConfig{
			MaxNormMult:   *maxNorm,
			CosineFloor:   *cosFloor,
			RoundNormMult: *roundNorm,
		}
	} else if *cosFloor != 0 || *roundNorm != 0 {
		return fmt.Errorf("-cosine-floor and -round-norm-mult need -max-norm-mult to arm sanitization")
	}
	maxCodec, err := wire.ParseCodec(*codec)
	if err != nil {
		return fmt.Errorf("-codec: %w", err)
	}
	if *histRounds < 0 {
		return fmt.Errorf("-history-rounds must be non-negative, got %d", *histRounds)
	}
	var shadowCfg *core.Config
	if *shadow {
		// Mirror apf-client's -scheme apf manager exactly: the shadow is a
		// deterministic replica of the client trajectory, so the configs
		// (and the shared seed) must match bit for bit.
		shadowCfg = &core.Config{CheckEveryRounds: 2, Threshold: 0.1, EMAAlpha: 0.85, Seed: *seed}
	}

	rel, err := transport.NewRelay(transport.RelayConfig{
		Addr:          *addr,
		Upstream:      *upstream,
		Name:          *name,
		SessionKey:    *name,
		NumClients:    *clients,
		IOTimeout:     *ioTimeout,
		RoundDeadline: *deadline,
		MinClients:    *minClients,
		Codec:         maxCodec,
		CheckpointDir: *ckptDir,
		SnapshotEvery: *snapEvery,
		HistoryRounds: *histRounds,
		Shadow:        shadowCfg,
		Validator:     validator,
		MaxRetries:    *retries,
		Seed:          *seed,
		Metrics:       obs.Metrics,
		Log:           obs.Log,
	})
	if err != nil {
		return err
	}

	stopObs, err := obs.Serve(func() []any {
		hs := []any{"relay", *name, "upstream", *upstream}
		if srv := rel.Server(); srv != nil {
			hs = append(hs,
				"round", srv.Round(),
				"committed_rounds", srv.CommittedRounds(),
				"recovered", srv.Recovered(),
			)
		}
		return hs
	})
	if err != nil {
		return err
	}
	defer stopObs()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("apf-relay: %s on %s — %d client(s) downward, root at %s\n",
		*name, rel.Addr(), *clients, *upstream)
	if _, err := rel.Run(ctx); err != nil {
		return err
	}
	upRead, upWritten := rel.UpstreamBytes()
	fmt.Printf("apf-relay: done — upstream bytes read %s, written %s\n",
		metrics.FormatBytes(upRead), metrics.FormatBytes(upWritten))
	if srv := rel.Server(); srv != nil {
		read, sent := srv.WireBytes()
		fmt.Printf("apf-relay: downward wire bytes received %s, sent %s\n",
			metrics.FormatBytes(read), metrics.FormatBytes(sent))
		if n := srv.PartialRounds(); n > 0 {
			fmt.Printf("apf-relay: %d round(s) aggregated without full participation\n", n)
		}
		if n := srv.RejectedUpdates(); n > 0 {
			fmt.Printf("apf-relay: %d update(s) rejected by sanitization\n", n)
		}
		if v := srv.Validator(); v != nil && v.QuarantinedCount() > 0 {
			fmt.Printf("apf-relay: %d client(s) quarantined\n", v.QuarantinedCount())
		}
	}
	return nil
}
