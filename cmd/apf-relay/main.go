// Command apf-relay runs one edge pre-aggregator of the two-tier
// topology. Downward it is a full aggregation server — clients connect
// with apf-client exactly as they would to a flat apf-server, with the
// same codec, sanitization, durability, and fault-tolerance options. Upward it joins an apf-server started with -relays, streams
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

	"apf/internal/metrics"
	"apf/internal/telemetry"
	"apf/internal/tierflags"
	"apf/internal/transport"
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
		addr     = fs.String("addr", ":7171", "downward listen address for client sessions")
		upstream = fs.String("upstream", "127.0.0.1:7070", "root coordinator address (an apf-server started with -relays)")
		name     = fs.String("name", "relay", "relay name, also the upstream session key (must be unique per relay)")
		clients  = fs.Int("clients", 3, "number of clients this relay terminates")
		retries  = fs.Int("retries", 3, "upstream reconnect attempts after a connection failure")
		seed     = fs.Int64("seed", 42, "seed for the upstream backoff jitter stream (and, with -shadow, the clients' shared seed)")
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

	rel, err := transport.NewRelay(transport.RelayConfig{
		Addr:          *addr,
		Upstream:      *upstream,
		Name:          *name,
		SessionKey:    *name,
		NumClients:    *clients,
		IOTimeout:     tier.IOTimeout,
		RoundDeadline: tier.RoundDeadline,
		MinClients:    tier.MinClients,
		Codec:         tier.Codec,
		CheckpointDir: tier.CheckpointDir,
		SnapshotEvery: tier.SnapshotEvery,
		HistoryRounds: tier.HistoryRounds,
		Shadow:        tier.Shadow,
		Validator:     tier.Validator,
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
