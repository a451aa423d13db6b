package transport

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/preset"
	"apf/internal/stats"
)

// TestCrashRealSIGKILL is the out-of-process crash drill behind `make
// crashtest`: it builds the real apf-server binary, runs a cluster where
// a scripted kill-server fault makes the server SIGKILL ITSELF mid-round
// (no deferred cleanup, no flushing — the genuine article), restarts the
// binary against the same checkpoint directory, and asserts the final
// weights are bit-identical to an uninterrupted run of the same cluster.
//
// Gated behind APF_CRASHTEST=1 because it compiles a binary and runs two
// full multi-second clusters — too heavy for the tier-1 loop.
func TestCrashRealSIGKILL(t *testing.T) {
	if os.Getenv("APF_CRASHTEST") == "" {
		t.Skip("set APF_CRASHTEST=1 (make crashtest) to run the SIGKILL drill")
	}

	const (
		seed    = 42
		clients = 3
		rounds  = 10
		model   = "mlp"
	)

	bin := filepath.Join(t.TempDir(), "apf-server")
	build := exec.Command("go", "build", "-o", bin, "apf/cmd/apf-server")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build apf-server: %v\n%s", err, out)
	}

	// The client side mirrors cmd/apf-client's configuration exactly, so
	// the drill exercises the same wire behaviour an operator gets.
	p, err := preset.Load(model, seed)
	if err != nil {
		t.Fatal(err)
	}
	parts := data.PartitionDirichlet(stats.SplitRNG(seed, 1), p.Data.Labels, p.Data.Classes, clients, 1.0)

	// killRound < 0 runs the arm uninterrupted; otherwise a scripted
	// kill-server fault SIGKILLs the server when that round is announced,
	// and the arm restarts the binary against the same checkpoint dir.
	runArm := func(name string, killRound int) []float64 {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		defer cancel()

		addr := freeAddr(t)
		maddr := freeAddr(t)
		dir := t.TempDir()
		args := []string{
			"-addr", addr, "-clients", fmt.Sprint(clients), "-rounds", fmt.Sprint(rounds),
			"-model", model, "-seed", fmt.Sprint(seed),
			"-deadline", "5s", "-checkpoint-dir", dir, "-snapshot-every", "3",
			// Sanitization armed with the direction gate: the drill proves the
			// recovered validator — including the persisted reference
			// direction — neither strikes honest clients after the restart
			// nor perturbs the bit-exact recovery.
			"-max-norm-mult", "3", "-cosine-floor", "0.2",
			"-metrics-addr", maddr, "-log-level", "info",
		}
		srvArgs := args
		if killRound >= 0 {
			srvArgs = append(append([]string(nil), args...), "-chaos", fmt.Sprintf("kill-server@%d", killRound))
		}
		srv := exec.CommandContext(ctx, bin, srvArgs...)
		srv.Stdout, srv.Stderr = os.Stderr, os.Stderr
		if err := srv.Start(); err != nil {
			t.Fatalf("%s: start server: %v", name, err)
		}
		srvDone := make(chan error, 1)
		go func() { srvDone <- srv.Wait() }()

		// The post-recovery scrape below needs a live process, and a
		// restarted server may otherwise commit its last rounds and exit
		// first. Every client therefore holds after applying round
		// rounds-2 until the scrape has returned (or the arm has failed):
		// no update for the last round exists before then, so the server
		// cannot finish. The clean arm never holds.
		scraped := make(chan struct{})
		var scrapedOnce sync.Once
		release := func() { scrapedOnce.Do(func() { close(scraped) }) }
		defer release()
		if killRound < 0 {
			release()
		}

		// The observability endpoint serves from process start: metrics,
		// health, and the pprof index must all answer before any round
		// completes (and, in the crash arm, before the SIGKILL fires).
		pollHTTP(t, name+" pre-crash", "http://"+maddr+"/metrics", "apf_round", srvDone)
		for _, path := range []string{"/healthz", "/debug/pprof/"} {
			if _, err := httpGetBody("http://" + maddr + path); err != nil {
				t.Errorf("%s: %s unreachable: %v", name, path, err)
			}
		}

		cfgs := make([]ClientConfig, clients)
		for i := range cfgs {
			cname := fmt.Sprintf("shard-%d", i)
			cfgs[i] = ClientConfig{
				Addr:       addr,
				Name:       cname,
				SessionKey: cname,
				Model:      p.Model,
				Optimizer:  p.Optimizer,
				Manager: func(clientID, dim int) fl.SyncManager {
					cfg := preset.APFConfig(seed)
					cfg.Dim = dim
					return core.NewManager(cfg)
				},
				Data:           p.Data,
				Indices:        parts[i],
				LocalIters:     4,
				BatchSize:      p.Batch,
				Seed:           seed + int64(i),
				MaxRetries:     100,
				RetryBaseDelay: 20 * time.Millisecond,
				RetryMaxDelay:  300 * time.Millisecond,
				OnRound: func(round int, _ []float64) {
					if round >= rounds-2 {
						select {
						case <-scraped:
						case <-ctx.Done():
						}
					}
				},
			}
		}
		wait := startClients(ctx, t, cfgs)

		if killRound >= 0 {
			// The chaos fault SIGKILLs the server at the scripted round.
			// Wait for the corpse, then restart against the same checkpoint
			// directory — without the chaos flag this time.
			if err := <-srvDone; err == nil {
				t.Fatalf("%s: server exited cleanly; the kill fault never fired", name)
			}
			srv2 := exec.CommandContext(ctx, bin, args...)
			srv2.Stdout, srv2.Stderr = os.Stderr, os.Stderr
			if err := srv2.Start(); err != nil {
				t.Fatalf("%s: restart server: %v", name, err)
			}
			srvDone = make(chan error, 1)
			go func() { srvDone <- srv2.Wait() }()

			// Post-recovery observability: the restarted process reports
			// the recovery in its counters and health, and its update
			// accounting stays internally consistent mid-run.
			body := pollHTTP(t, name+" post-recovery", "http://"+maddr+"/metrics", "apf_recoveries_total 1", srvDone)
			m := parseMetricsText(t, body)
			recv, acc, rej, stale := updateCounts(m)
			if acc+rej+stale > recv {
				t.Errorf("%s: classified %v+%v+%v updates but only %v received",
					name, acc, rej, stale, recv)
			}
			if hz, err := httpGetBody("http://" + maddr + "/healthz"); err != nil {
				t.Errorf("%s: /healthz after recovery: %v", name, err)
			} else if !strings.Contains(hz, `"recovered":true`) {
				t.Errorf("%s: /healthz does not report the recovery: %s", name, hz)
			}
			release()
		}

		results := wait()
		if err := <-srvDone; err != nil {
			t.Fatalf("%s: server: %v", name, err)
		}
		return results[0].FinalModel
	}

	clean := runArm("clean", -1)
	// Round 6: the classic mid-run crash, recovering generation 6 from a
	// recycled snapshot file and a recycled log that holds only stale
	// records. Round 0: the nastiest window — the base snapshot is on disk
	// but nothing has committed, so recovery restarts from a generation-0
	// checkpoint with an empty history. Round 8: generation 6's live
	// records (rounds 6 and 7) sit in front of the stale, equal-length
	// frame of round 5 in the recycled log, and replay must stop at it.
	for _, killRound := range []int{6, 0, 8} {
		crashed := runArm(fmt.Sprintf("crashed@%d", killRound), killRound)
		if len(clean) != len(crashed) {
			t.Fatalf("kill@%d: model dims differ: %d vs %d", killRound, len(clean), len(crashed))
		}
		diffs := 0
		for j := range clean {
			if clean[j] != crashed[j] {
				diffs++
			}
		}
		if diffs != 0 {
			t.Fatalf("kill@%d: crash-and-recover diverged from the uninterrupted run at %d/%d scalars",
				killRound, diffs, len(clean))
		}
	}
}

// TestCrashTwoTierBinaries is the drill's two-tier arm: it builds the real
// apf-relay binary and runs an in-process root (Relays 2) under two
// apf-relay processes with two in-process clients each. Every client's
// final model must equal its flat in-process twin's bit for bit, as
// TestTwoTierBitExactVsFlat requires in-process — so the relay's flags and
// its uplink run end to end from the binary an operator starts.
func TestCrashTwoTierBinaries(t *testing.T) {
	if os.Getenv("APF_CRASHTEST") == "" {
		t.Skip("set APF_CRASHTEST=1 (make crashtest) to run the two-tier binary drill")
	}
	const (
		seed    = 42
		clients = 4
		rounds  = 6
	)
	bin := filepath.Join(t.TempDir(), "apf-relay")
	if out, err := exec.Command("go", "build", "-o", bin, "apf/cmd/apf-relay").CombinedOutput(); err != nil {
		t.Fatalf("build apf-relay: %v\n%s", err, out)
	}
	p, err := preset.Load("mlp", seed)
	if err != nil {
		t.Fatal(err)
	}
	init := p.InitVector(seed)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Each client mirrors apf-client -scheme none on shard i, except that it
	// trains on one sample: its trajectory then does not depend on the id
	// its server assigns, which a relay numbers locally and the flat twin
	// globally.
	cfgs := make([]ClientConfig, clients)
	for i := range cfgs {
		name := fmt.Sprintf("shard-%d", i)
		cfgs[i] = ClientConfig{
			Name: name, SessionKey: name,
			Model: p.Model, Optimizer: p.Optimizer,
			Manager:    passthrough,
			Data:       p.Data,
			Indices:    []int{i},
			LocalIters: 4,
			BatchSize:  1,
			Seed:       seed + int64(i),
			// A relay process may still be starting: refused dials retry.
			MaxRetries:     100,
			RetryBaseDelay: 20 * time.Millisecond,
			RetryMaxDelay:  300 * time.Millisecond,
		}
	}
	flat, err := RunCluster(ctx, Cluster{
		Root:    ServerConfig{NumClients: clients, Rounds: rounds, Init: init},
		Clients: cfgs,
	})
	if err != nil {
		t.Fatalf("flat twin: %v", err)
	}

	root, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Relays: 2, Rounds: rounds, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	rootDone := make(chan error, 1)
	go func() {
		_, err := root.Run(ctx)
		rootDone <- err
	}()
	relayAddrs := []string{freeAddr(t), freeAddr(t)}
	relayDone := make([]chan error, len(relayAddrs))
	for i, name := range []string{"edge-a", "edge-b"} {
		rel := exec.CommandContext(ctx, bin,
			"-addr", relayAddrs[i], "-upstream", root.Addr().String(), "-name", name,
			"-clients", fmt.Sprint(clients/2), "-retries", "3", "-seed", fmt.Sprint(seed),
			// Every downward-face flag, set to values that leave a fault-free
			// run's trajectory unchanged.
			"-io-timeout", "30s", "-deadline", "30s", "-min-clients", "2",
			"-checkpoint-dir", t.TempDir(), "-snapshot-every", "2",
			"-history-rounds", "3", "-shadow", "-codec", "dense",
			"-max-norm-mult", "10", "-cosine-floor", "-1", "-round-norm-mult", "10",
			"-log-level", "info")
		rel.Stdout, rel.Stderr = os.Stderr, os.Stderr
		if err := rel.Start(); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		relayDone[i] = make(chan error, 1)
		go func(i int) { relayDone[i] <- rel.Wait() }(i)
	}
	for i := range cfgs {
		cfgs[i].Addr = relayAddrs[i/(clients/2)]
	}
	got := startClients(ctx, t, cfgs)()
	for i, done := range relayDone {
		if err := <-done; err != nil {
			t.Fatalf("apf-relay %d: %v", i, err)
		}
	}
	if err := <-rootDone; err != nil {
		t.Fatalf("root: %v", err)
	}
	for i, want := range flat.Clients {
		for j := range want.FinalModel {
			if got[i].FinalModel[j] != want.FinalModel[j] {
				t.Fatalf("client %d: two-tier final model differs from the flat twin's at %d: %v vs %v",
					i, j, got[i].FinalModel[j], want.FinalModel[j])
			}
		}
	}
}

// startClients launches cfgs in slot order in the background, against
// tiers that run as processes of their own. wait blocks until every
// client has returned and fails the test on any client error.
func startClients(ctx context.Context, t *testing.T, cfgs []ClientConfig) (wait func() []*ClientResult) {
	var results []*ClientResult
	var errs []error
	done := make(chan struct{})
	go func() {
		defer close(done)
		results, errs = launchClients(ctx, cfgs)
	}()
	return func() []*ClientResult {
		t.Helper()
		<-done
		for i, err := range errs {
			if err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
		}
		return results
	}
}

// httpGetBody fetches url with a short timeout and returns the body of a
// 200 response.
func httpGetBody(url string) (string, error) {
	c := http.Client{Timeout: 2 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), nil
}

// pollHTTP polls url until its body contains want (the target process may
// still be binding its listener), failing the test after 30 seconds — or
// at once when exited reports that the process serving url is gone.
func pollHTTP(t *testing.T, label, url, want string, exited <-chan error) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		select {
		case err := <-exited:
			t.Fatalf("%s: server exited (%v) before %s served %q", label, err, url, want)
		default:
		}
		body, err := httpGetBody(url)
		if err == nil && strings.Contains(body, want) {
			return body
		}
		if err == nil {
			lastErr = fmt.Errorf("body does not contain %q", want)
		} else {
			lastErr = err
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s: %s never served %q: %v", label, url, want, lastErr)
	return ""
}

// freeAddr reserves a loopback port and releases it for the server
// process to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}
