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

	"apf/internal/chaos"
	"apf/internal/metrics"
	"apf/internal/preset"
	"apf/internal/telemetry"
	"apf/internal/tierflags"
	"apf/internal/transport"
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
		addr      = fs.String("addr", ":7070", "listen address")
		clients   = fs.Int("clients", 3, "number of clients to wait for")
		relays    = fs.Int("relays", 0, "run as the hierarchy's root tier over this many apf-relay edge pre-aggregators instead of direct clients (0 = flat coordinator; incompatible with a nonzero -trim-frac and sanitization, which need per-client payloads)")
		rounds    = fs.Int("rounds", 50, "aggregation rounds")
		model     = fs.String("model", "lenet", "workload preset: lenet | lstm | mlp")
		seed      = fs.Int64("seed", 42, "shared seed (must match the clients)")
		trimFrac  = fs.Float64("trim-frac", 0, "per-side trim fraction of the coordinate-wise trimmed mean, in [0, 0.5); 0 = the weighted mean")
		chaosSpec = fs.String("chaos", "", "fault-injection script, e.g. 'accept:1/sever-write@5;kill-server@7' (testing)")
		chaosSeed = fs.Int64("chaos-seed", 1, "seed for randomized chaos choices")
	)
	tier := tierflags.Bind(fs)
	obs := telemetry.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if obs.PrintVersion() {
		return nil
	}
	if err := tier.Resolve(*seed); err != nil {
		return err
	}
	if err := obs.Resolve(); err != nil {
		return err
	}
	if !(*trimFrac >= 0 && *trimFrac < 0.5) {
		return fmt.Errorf("-trim-frac %g outside [0, 0.5)", *trimFrac)
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

	srv, err := transport.NewServer(transport.ServerConfig{
		Addr:          *addr,
		Listener:      ln,
		NumClients:    *clients,
		Relays:        *relays,
		Rounds:        *rounds,
		Init:          init,
		IOTimeout:     tier.IOTimeout,
		RoundDeadline: tier.RoundDeadline,
		MinClients:    tier.MinClients,
		CheckpointDir: tier.CheckpointDir,
		SnapshotEvery: tier.SnapshotEvery,
		HistoryRounds: tier.HistoryRounds,
		Shadow:        tier.Shadow,
		Validator:     tier.Validator,
		Codec:         tier.Codec,
		TrimFraction:  *trimFrac,
		Metrics:       obs.Metrics,
		Log:           obs.Log,
	})
	if err != nil {
		return err
	}
	if tier.CheckpointDir != "" && srv.Recovered() {
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
