// Command apf-server runs the central federated-learning aggregation
// server over TCP. Pair it with cmd/apf-client instances (on the same or
// other machines); both sides must agree on -model and -seed.
//
// Example (one server, three clients, APF enabled on the clients):
//
//	apf-server -addr :7070 -clients 3 -rounds 50 -model lenet -seed 42
//	apf-client -addr host:7070 -model lenet -seed 42 -shard 0 -shards 3 -scheme apf
//	...
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"apf/internal/chaos"
	"apf/internal/core"
	"apf/internal/fl"
	"apf/internal/metrics"
	"apf/internal/preset"
	"apf/internal/telemetry"
	"apf/internal/transport"
	"apf/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "apf-server:", err)
		os.Exit(1)
	}
}

// run parses flags and serves one full training session.
func run(args []string) error {
	fs := flag.NewFlagSet("apf-server", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":7070", "listen address")
		clients    = fs.Int("clients", 3, "number of clients to wait for")
		relays     = fs.Int("relays", 0, "run as the hierarchy's root tier over this many apf-relay edge pre-aggregators instead of direct clients (0 = flat coordinator; incompatible with -aggregator trimmed and sanitization, which need per-client payloads)")
		rounds     = fs.Int("rounds", 50, "aggregation rounds")
		model      = fs.String("model", "lenet", "workload preset: lenet | lstm | mlp")
		seed       = fs.Int64("seed", 42, "shared seed (must match the clients)")
		ioTimeout  = fs.Duration("io-timeout", 30*time.Second, "per-message network read/write deadline")
		deadline   = fs.Duration("deadline", 0, "round deadline enabling partial aggregation and session resume (0 = strict barrier)")
		minClients = fs.Int("min-clients", 1, "minimum updates before a round deadline may aggregate")
		ckptDir    = fs.String("checkpoint-dir", "", "directory for the durable snapshot + WAL; a restarted server resumes from it bit-exactly (empty = not durable)")
		snapEvery  = fs.Int("snapshot-every", 5, "rotate the checkpoint snapshot every K committed rounds")
		histRounds = fs.Int("history-rounds", 0, "cap the aggregate replay history to this many rounds, bounding server memory; clients absent past the cap catch up via sketch reconciliation or a snapshot instead of replay (0 = unbounded)")
		shadow     = fs.Bool("shadow", false, "maintain a shadow APF replica of the client trajectory (requires clients with -scheme apf and the same -seed), enabling stateful O(diff) sketch catch-up for clients absent past -history-rounds")
		maxNorm    = fs.Float64("max-norm-mult", 0, "arm the update sanitization pipeline (non-finite and dimension checks plus the norm gate), striking updates whose L2 norm exceeds this multiple of the rolling median (0 = sanitization off)")
		cosFloor   = fs.Float64("cosine-floor", 0, "with sanitization armed, also strike updates whose cosine against the decayed reference direction falls below this floor (0 = direction gate off; negative floors are meaningful)")
		roundNorm  = fs.Float64("round-norm-mult", 0, "with sanitization armed, also strike accepted updates after the round when their norm exceeds this multiple of the round median (0 = post-round review off)")
		aggregator = fs.String("aggregator", "mean", "aggregation reduction: mean | trimmed (coordinate-wise trimmed mean)")
		trimFrac   = fs.Float64("trim-frac", 0, "per-side trim fraction for -aggregator trimmed, in [0, 0.5); 0 = default 0.25")
		codec      = fs.String("codec", "dense", "strongest payload codec to offer sessions: dense | sparse | sparse-q16 (each client negotiates down to what it supports)")
		chaosSpec  = fs.String("chaos", "", "fault-injection script, e.g. 'accept:1/sever-write@5;kill-server@7' (testing)")
		chaosSeed  = fs.Int64("chaos-seed", 1, "seed for randomized chaos choices")
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

	p, err := preset.Load(*model, *seed)
	if err != nil {
		return err
	}
	init := p.InitVector(*seed)

	var ln net.Listener
	if *chaosSpec != "" {
		faults, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			return err
		}
		inner, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		script := chaos.NewScript(*chaosSeed, faults...)
		// A scripted kill-server fault is a real crash: SIGKILL skips all
		// deferred cleanup, exactly what the durable checkpoint recovery
		// must tolerate (make crashtest exercises this path).
		script.SetOnKill(func() {
			fmt.Println("apf-server: chaos kill-server fault fired, crashing")
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		})
		ln = script.Listener(inner)
		fmt.Printf("apf-server: chaos script armed with %d fault(s)\n", len(faults))
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
	reduction, err := fl.ParseReduction(*aggregator)
	if err != nil {
		return fmt.Errorf("-aggregator: %w", err)
	}
	if *trimFrac < 0 || *trimFrac >= 0.5 {
		return fmt.Errorf("-trim-frac %g outside [0, 0.5)", *trimFrac)
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
	srv, err := transport.NewServer(transport.ServerConfig{
		Addr:          *addr,
		Listener:      ln,
		NumClients:    *clients,
		Relays:        *relays,
		Rounds:        *rounds,
		Init:          init,
		IOTimeout:     *ioTimeout,
		RoundDeadline: *deadline,
		MinClients:    *minClients,
		CheckpointDir: *ckptDir,
		SnapshotEvery: *snapEvery,
		HistoryRounds: *histRounds,
		Shadow:        shadowCfg,
		Validator:     validator,
		Codec:         maxCodec,
		Reduction:     reduction,
		TrimFraction:  *trimFrac,
		Metrics:       obs.Metrics,
		Log:           obs.Log,
	})
	if err != nil {
		return err
	}
	if *ckptDir != "" && srv.Recovered() {
		fmt.Printf("apf-server: resumed from checkpoint at round %d\n", srv.StartRound())
	}

	stopObs, err := obs.Serve(func() []any {
		return []any{
			"round", srv.Round(),
			"committed_rounds", srv.CommittedRounds(),
			"recovered", srv.Recovered(),
		}
	})
	if err != nil {
		return err
	}
	defer stopObs()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *relays > 0 {
		fmt.Printf("apf-server: %s root tier on %s — waiting for %d relay(s), %d rounds, model dim %d\n",
			*model, srv.Addr(), *relays, *rounds, len(init))
	} else {
		fmt.Printf("apf-server: %s on %s — waiting for %d client(s), %d rounds, model dim %d\n",
			*model, srv.Addr(), *clients, *rounds, len(init))
	}
	if _, err := srv.Run(ctx); err != nil {
		return err
	}
	read, sent := srv.WireBytes()
	fmt.Printf("apf-server: done — wire bytes received %s, sent %s\n",
		metrics.FormatBytes(read), metrics.FormatBytes(sent))
	if n := srv.PartialRounds(); n > 0 {
		fmt.Printf("apf-server: %d round(s) aggregated without full participation\n", n)
	}
	if n := srv.RejectedUpdates(); n > 0 {
		fmt.Printf("apf-server: %d update(s) rejected by sanitization\n", n)
	}
	if v := srv.Validator(); v != nil && v.QuarantinedCount() > 0 {
		fmt.Printf("apf-server: %d client(s) quarantined\n", v.QuarantinedCount())
	}
	return nil
}
