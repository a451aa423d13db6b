package apf_test

import (
	"context"
	"fmt"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"

	"apf/internal/core"
	"apf/internal/fl"
	"apf/internal/preset"
	"apf/internal/telemetry"
	"apf/internal/transport"
)

// TestMetricCatalogueMatchesRegistrations holds DESIGN.md's metric
// catalogue to what the tiers register: it runs a durable, shadowed root
// under a durable, validated relay with two APF clients, each tier on its
// own registry, and compares the union of their families with the
// catalogue rows. A registered family missing from the catalogue is
// invisible to an operator reading it; a catalogued family no tier
// registers sends them looking for a series that never appears.
func TestMetricCatalogueMatchesRegistrations(t *testing.T) {
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var catalogue []string
	for _, m := range regexp.MustCompile("(?m)^\\| `(apf_[a-z0-9_]+)` \\|").FindAllSubmatch(src, -1) {
		catalogue = append(catalogue, string(m[1]))
	}
	if len(catalogue) == 0 {
		t.Fatal("DESIGN.md has no metric catalogue rows")
	}

	const seed = 7
	p, err := preset.Load("mlp", seed)
	if err != nil {
		t.Fatal(err)
	}
	rootReg, relayReg, clientReg := telemetry.New(), telemetry.New(), telemetry.New()
	// Every daemon publishes its build identity on the registry it serves.
	telemetry.RegisterBuildInfo(rootReg)
	shadow := preset.APFConfig(seed)
	clients := make([]transport.ClientConfig, 2)
	for i := range clients {
		name := fmt.Sprintf("shard-%d", i)
		clients[i] = transport.ClientConfig{
			Name: name, SessionKey: name,
			Model: p.Model, Optimizer: p.Optimizer,
			Manager: func(_, dim int) fl.SyncManager {
				cfg := shadow
				cfg.Dim, cfg.Observer = dim, telemetry.ManagerObserver(clientReg)
				return core.NewManager(cfg)
			},
			Data: p.Data, Indices: []int{2 * i, 2*i + 1}, LocalIters: 1, BatchSize: 2, Seed: seed,
			Metrics: clientReg,
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, err = transport.RunCluster(ctx, transport.Cluster{
		Root: transport.ServerConfig{
			Rounds: 3, Init: p.InitVector(seed), CheckpointDir: t.TempDir(),
			Shadow: &shadow, Metrics: rootReg,
		},
		Relays: []transport.RelayConfig{{
			Name: "edge", SessionKey: "edge", NumClients: len(clients),
			CheckpointDir: t.TempDir(), Validator: &transport.ValidatorConfig{MaxNormMult: 10},
			Metrics: relayReg,
		}},
		Clients: clients,
	})
	if err != nil {
		t.Fatal(err)
	}

	var registered []string
	for _, reg := range []*telemetry.Registry{rootReg, relayReg, clientReg} {
		for _, name := range reg.Names() {
			if !slices.Contains(registered, name) {
				registered = append(registered, name)
			}
		}
	}
	var missing, stale []string
	for _, name := range registered {
		if !slices.Contains(catalogue, name) {
			missing = append(missing, name)
		}
	}
	for _, name := range catalogue {
		if !slices.Contains(registered, name) {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("DESIGN.md's metric catalogue does not name %d registered famil(ies): %v", len(missing), missing)
	}
	if len(stale) > 0 {
		t.Errorf("DESIGN.md's metric catalogue names %d famil(ies) no tier registers: %v", len(stale), stale)
	}
}
