package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"apf/internal/chaos"
	"apf/internal/checkpoint"
	"apf/internal/telemetry"
)

// parseMetricsText parses Prometheus text exposition into a map of
// "name{labels}" → value (comment lines skipped).
func parseMetricsText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// updateCounts extracts the engine's update-classification counters.
func updateCounts(m map[string]float64) (received, accepted, rejected, stale float64) {
	return m["apf_updates_received_total"],
		m[`apf_updates_total{result="accepted"}`],
		m[`apf_updates_total{result="rejected"}`],
		m[`apf_updates_total{result="stale"}`]
}

// TestMetricsConsistencyUnderChaosScrape runs a fault-injected cluster
// while hammering the live /metrics endpoint from a concurrent scraper,
// checking on every scrape that the counter identities hold mid-flight:
// classification never exceeds reception, and counters never move
// backwards. Under -race this also proves the record and exposition paths
// are data-race free against the full transport stack.
func TestMetricsConsistencyUnderChaosScrape(t *testing.T) {
	reg := telemetry.New()
	creg := telemetry.New()

	ts := httptest.NewServer(telemetry.Handler(reg, nil))
	defer ts.Close()

	var (
		scrapeWG  sync.WaitGroup
		stop      = make(chan struct{})
		mu        sync.Mutex
		scrapes   int
		anomalies []string
	)
	last := make(map[string]float64)
	scrape := func() {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			mu.Lock()
			anomalies = append(anomalies, fmt.Sprintf("scrape failed: %v", err))
			mu.Unlock()
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			mu.Lock()
			anomalies = append(anomalies, fmt.Sprintf("scrape status %d err %v", resp.StatusCode, err))
			mu.Unlock()
			return
		}
		m := parseMetricsText(t, string(body))
		mu.Lock()
		defer mu.Unlock()
		scrapes++
		recv, acc, rej, st := updateCounts(m)
		if acc+rej+st > recv {
			anomalies = append(anomalies, fmt.Sprintf(
				"classified %v+%v+%v updates but only %v received", acc, rej, st, recv))
		}
		for k, v := range m {
			if !strings.Contains(k, "_total") {
				continue // gauges may move either way
			}
			if prev, ok := last[k]; ok && v < prev {
				anomalies = append(anomalies, fmt.Sprintf("%s went backwards: %v -> %v", k, prev, v))
			}
			last[k] = v
		}
	}
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				scrape()
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	const rounds = 10
	o := chaosOpts{
		clients: 3, rounds: rounds, deadline: 5 * time.Second, retries: 8,
		metrics: reg, cmetrics: creg,
		script: chaos.NewScript(7,
			chaos.Fault{Peer: "shard-1", Round: 3, Kind: chaos.Sever},
			chaos.Fault{Peer: "shard-2", Round: 6, Kind: chaos.Sever},
		),
	}
	results, _, _ := runChaosCluster(t, apfChaosFactory, o)

	close(stop)
	scrapeWG.Wait()
	mu.Lock()
	defer mu.Unlock()
	for _, a := range anomalies {
		t.Error(a)
	}
	if scrapes == 0 {
		t.Fatal("the scraper never completed a scrape")
	}
	t.Logf("%d concurrent scrapes, 0 anomalies", scrapes)

	// Quiescence: every received update has been classified, exactly once.
	final := reg.Snapshot()
	recv := final["apf_updates_received_total"]
	acc := final[`apf_updates_total{result="accepted"}`]
	rej := final[`apf_updates_total{result="rejected"}`]
	st := final[`apf_updates_total{result="stale"}`]
	if acc+rej+st != recv {
		t.Errorf("update classification does not sum up: %v+%v+%v != %v", acc, rej, st, recv)
	}
	if want := float64(o.clients * rounds); acc < want {
		t.Errorf("accepted %v updates, want at least %v", acc, want)
	}
	if got := final["apf_rounds_committed_total"]; got != rounds {
		t.Errorf("apf_rounds_committed_total = %v, want %v", got, rounds)
	}
	if got := final["apf_committed_rounds"]; got != rounds {
		t.Errorf("apf_committed_rounds = %v, want %v", got, rounds)
	}
	if got := final["apf_connections_total"]; got < 3 {
		t.Errorf("apf_connections_total = %v, want >= 3", got)
	}
	if got := final["apf_sessions_resumed_total"]; got < 2 {
		t.Errorf("apf_sessions_resumed_total = %v, want >= 2 (both severed clients resumed)", got)
	}
	// Wire accounting saw every accepted update frame at least once, in
	// both directions (updates in, globals out).
	if got := final[`apf_wire_frames_total{kind="update",dir="in"}`]; got < recv {
		t.Errorf("inbound update frames %v < received updates %v", got, recv)
	}
	if got := final[`apf_wire_bytes_total{kind="global",dir="out"}`]; got <= 0 {
		t.Errorf("no outbound global bytes accounted")
	}

	// Client-side counters (shared registry across the 3 clients).
	cfinal := creg.Snapshot()
	if got := cfinal["apf_client_rounds_total"]; got < float64(o.clients*rounds) {
		t.Errorf("apf_client_rounds_total = %v, want >= %v", got, o.clients*rounds)
	}
	recon := 0
	for _, r := range results {
		recon += r.Reconnects
	}
	if got := cfinal["apf_client_reconnects_total"]; got != float64(recon) {
		t.Errorf("apf_client_reconnects_total = %v, want %v (sum of client results)", got, recon)
	}
	if got := cfinal[`apf_client_payload_bytes_total{dir="up"}`]; got <= 0 {
		t.Error("no client upload payload bytes accounted")
	}
}

// TestRecoveryMetrics restarts a durable server under a live registry and
// asserts the recovery surfaces as metrics: the recovery counter, the
// resume round, and the restored history length.
func TestRecoveryMetrics(t *testing.T) {
	const clients, rounds = 2, 6
	dir := t.TempDir()
	task := newTinyTask(60, clients)

	run := func(reg *telemetry.Registry, cfgs []ClientConfig) *Server {
		return runSpec(t, Cluster{
			Root: ServerConfig{
				NumClients:    clients,
				Rounds:        rounds,
				Init:          task.init,
				CheckpointDir: dir,
				SnapshotEvery: 4,
				Metrics:       reg,
			},
			Clients: cfgs,
		}).Root
	}

	// First run: fresh start, no recovery metrics.
	reg1 := telemetry.New()
	run(reg1, task.clients(passthrough))
	if got := reg1.Snapshot()["apf_recoveries_total"]; got != 0 {
		t.Errorf("fresh start reported %v recoveries, want 0", got)
	}

	// Second run against the same checkpoint dir: a recovery, which
	// finds every round committed, so no client is needed.
	reg2 := telemetry.New()
	srv := run(reg2, nil)
	if !srv.Recovered() {
		t.Fatal("second run did not recover from the checkpoint")
	}
	snap := reg2.Snapshot()
	if got := snap["apf_recoveries_total"]; got != 1 {
		t.Errorf("apf_recoveries_total = %v, want 1", got)
	}
	if got := snap["apf_recovered_round"]; got != float64(srv.StartRound()) {
		t.Errorf("apf_recovered_round = %v, want %v", got, srv.StartRound())
	}
	if got := snap["apf_committed_rounds"]; got != float64(srv.CommittedRounds()) {
		t.Errorf("apf_committed_rounds = %v, want %v", got, srv.CommittedRounds())
	}
}

// TestStoreMetrics pins the durability series to exact values: a durable
// run of 8 rounds at SnapshotEvery 3 logs 8 framed commits and rotates
// generations 0, 3 and 6; a restart over its directory loads generation 6
// and replays its 2 records; a server without a store registers none of
// the families.
func TestStoreMetrics(t *testing.T) {
	const clients, rounds, every = 2, 8, 3
	dir := t.TempDir()
	cfg := ServerConfig{
		NumClients:    clients,
		Rounds:        rounds,
		CheckpointDir: dir,
		SnapshotEvery: every,
		Metrics:       telemetry.New(),
	}
	_, srv, _ := runClusterWith(t, cfg, passthrough, nil)

	// A record frame: header, 8-byte generation stamp, the commit's
	// encoding, trailer.
	walBytes := 0
	for r := 0; r < rounds; r++ {
		g := &GlobalMsg{Round: r, Participants: clients, Payload: make([]float64, len(srv.cfg.Init))}
		walBytes += checkpoint.HeaderLen + 8 + len(encodeWALGlobal(new(checkpoint.Writer), g)) + checkpoint.TrailerLen
	}
	check := func(run string, reg *telemetry.Registry, want map[string]float64) {
		t.Helper()
		snap := reg.Snapshot()
		for name, v := range want {
			if got, ok := snap[name]; !ok || got != v {
				t.Errorf("%s: %s = %v (registered %v), want %v", run, name, got, ok, v)
			}
		}
	}
	check("durable run", cfg.Metrics, map[string]float64{
		"apf_wal_appends_total":            rounds,
		"apf_wal_append_seconds":           rounds,
		"apf_wal_bytes_total":              float64(walBytes),
		"apf_snapshots_total":              3,
		"apf_snapshot_seconds":             3,
		"apf_snapshot_rounds":              6,
		"apf_checkpoint_loads_total":       1,
		"apf_checkpoint_loads_found_total": 0,
		"apf_wal_replayed_records_total":   0,
	})
	if snap := cfg.Metrics.Snapshot(); snap["apf_wal_append_seconds_sum"] <= 0 || snap["apf_snapshot_seconds_sum"] <= 0 {
		t.Errorf("append/snapshot latency sums %v/%v, want > 0",
			snap["apf_wal_append_seconds_sum"], snap["apf_snapshot_seconds_sum"])
	}

	// The restart finds every round committed, so Run returns at once.
	cfg.Init, cfg.Metrics = srv.cfg.Init, telemetry.New()
	restarted, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restarted.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	check("restart", cfg.Metrics, map[string]float64{
		"apf_wal_appends_total":            0,
		"apf_snapshots_total":              0,
		"apf_snapshot_rounds":              6,
		"apf_checkpoint_loads_total":       1,
		"apf_checkpoint_loads_found_total": 1,
		"apf_wal_replayed_records_total":   rounds - 6,
	})

	plain := telemetry.New()
	runClusterWith(t, ServerConfig{NumClients: clients, Rounds: 2, Metrics: plain}, passthrough, nil)
	for _, name := range plain.Names() {
		if strings.HasPrefix(name, "apf_wal_") || strings.HasPrefix(name, "apf_snapshot") || strings.HasPrefix(name, "apf_checkpoint_") {
			t.Errorf("server without a store registered %s", name)
		}
	}
}

// lockedBuffer is a log sink read while the cluster's goroutines may
// still write to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestEventLogWiring runs a small durable cluster whose server and clients
// share one JSON logger: every event of the server, client and checkpoint
// layers is one JSON object tagged with its component, and the server
// logs each commit exactly once.
func TestEventLogWiring(t *testing.T) {
	const clients, rounds = 2, 4
	var sink lockedBuffer
	log, err := telemetry.NewLogger(&sink, slog.LevelDebug, "json")
	if err != nil {
		t.Fatal(err)
	}
	runClusterWith(t, ServerConfig{
		NumClients:    clients,
		Rounds:        rounds,
		CheckpointDir: t.TempDir(),
		SnapshotEvery: 2,
		Log:           log,
	}, passthrough, func(_ int, cfg *ClientConfig) { cfg.Log = log })

	events := map[string]int{}
	commits := map[float64]int{}
	for _, line := range strings.Split(strings.TrimSuffix(sink.String(), "\n"), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("log line is not one JSON object: %v\n%s", err, line)
		}
		component, _ := ev["component"].(string)
		switch component {
		case "server", "client", "checkpoint":
			events[component]++
		default:
			t.Fatalf("log line without a known component: %s", line)
		}
		if ev["msg"] == "round committed" {
			round, _ := ev["round"].(float64)
			commits[round]++
		}
	}
	for _, component := range []string{"server", "client", "checkpoint"} {
		if events[component] == 0 {
			t.Errorf("no %s events logged", component)
		}
	}
	for r := 0; r < rounds; r++ {
		if commits[float64(r)] != 1 {
			t.Errorf("round %d committed %d times in the log, want 1", r, commits[float64(r)])
		}
	}
	if len(commits) != rounds {
		t.Errorf("log commits rounds %v, want 0..%d", commits, rounds-1)
	}
}
