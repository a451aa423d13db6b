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

		results := make([]*ClientResult, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			cname := fmt.Sprintf("shard-%d", i)
			cfg := ClientConfig{
				Addr:       addr,
				Name:       cname,
				SessionKey: cname,
				Model:      p.Model,
				Optimizer:  p.Optimizer,
				Manager: func(clientID, dim int) fl.SyncManager {
					return core.NewManager(core.Config{
						Dim: dim, CheckEveryRounds: 2, Threshold: 0.1, EMAAlpha: 0.85, Seed: seed,
					})
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
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = RunClient(ctx, cfg)
			}(i)
			time.Sleep(150 * time.Millisecond)
		}

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

		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: client %d: %v", name, i, err)
			}
		}
		if err := <-srvDone; err != nil {
			t.Fatalf("%s: server: %v", name, err)
		}
		return results[0].FinalModel
	}

	clean := runArm("clean", -1)
	// Round 6: the classic mid-run crash. Round 0: the nastiest window —
	// the base snapshot is on disk but nothing has committed, so recovery
	// restarts from a generation-0 checkpoint with an empty history.
	for _, killRound := range []int{6, 0} {
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
