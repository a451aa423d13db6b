package scenario

import (
	"reflect"
	"testing"

	"apf/internal/chaos"
)

// TestFlakyNetworkSeverFaults pins the exact sever list of the flaky
// network at the matrix's first two trial seeds, so any change to the
// draws shows here before it shows in BENCH_scenarios.json.
func TestFlakyNetworkSeverFaults(t *testing.T) {
	t.Parallel()
	sever := func(c, r int) chaos.Fault { return chaos.Fault{Peer: clientName(c), Round: r, Kind: chaos.Sever} }
	want := [][]chaos.Fault{
		{sever(2, 1), sever(2, 2), sever(2, 3), sever(2, 4), sever(2, 5), sever(2, 6), sever(1, 7)},
		{sever(1, 1), sever(2, 2), sever(2, 3), sever(1, 5), sever(2, 7)},
	}
	wantSevers := [][]int{{0, 1, 6}, {0, 2, 3}}
	cfg := Config{Network: FlakyNetwork()}.withDefaults()
	if cfg.Clients != 3 || cfg.Rounds != 8 {
		t.Fatalf("default cell shape %d clients × %d rounds, want 3 × 8", cfg.Clients, cfg.Rounds)
	}
	for trial := range want {
		faults, severs := buildFaults(cfg, TrialSeed(1, trial))
		if !reflect.DeepEqual(faults, want[trial]) {
			t.Errorf("trial %d faults:\n got %+v\nwant %+v", trial, faults, want[trial])
		}
		if !reflect.DeepEqual(severs, wantSevers[trial]) {
			t.Errorf("trial %d sever counts %v, want %v", trial, severs, wantSevers[trial])
		}
	}
}

func TestDropoutScheduleDeterministicAndSeedSensitive(t *testing.T) {
	t.Parallel()
	same, diff := true, true
	for r := 0; r < 40; r++ {
		for cl := 0; cl < 5; cl++ {
			a := dropped(42, 5, 0.3, r, cl)
			if a != dropped(42, 5, 0.3, r, cl) {
				same = false
			}
			if a != dropped(43, 5, 0.3, r, cl) {
				diff = false
			}
		}
	}
	if !same {
		t.Error("identical seeds produced different schedules")
	}
	if diff {
		t.Error("different seeds produced identical schedules")
	}
}

func TestDropoutScheduleRates(t *testing.T) {
	t.Parallel()
	// Rate 0: nobody ever drops.
	for r := 0; r < 20; r++ {
		for c := 0; c < 4; c++ {
			if dropped(1, 4, 0, r, c) {
				t.Fatalf("rate-0 schedule dropped client %d at round %d", c, r)
			}
		}
	}
	// Rate 1: everyone would drop, but the fallback keeps exactly one
	// client per round so the server can always aggregate.
	for r := 0; r < 20; r++ {
		for c := 0; c < 4; c++ {
			if got := !dropped(1, 4, 1, r, c); got != (c == r%4) {
				t.Fatalf("rate-1 round %d: client %d connected %v, want only the fallback slot", r, c, got)
			}
		}
	}
	// A middling rate drops someone eventually.
	some := false
	for r := 0; r < 40 && !some; r++ {
		for c := 0; c < 4; c++ {
			some = some || dropped(7, 4, 0.4, r, c)
		}
	}
	if !some {
		t.Error("rate-0.4 schedule never dropped anyone in 40 rounds")
	}
}

// TestDropoutScheduleMarginalRate: over many seeded rounds the empirical
// per-cell drop frequency converges on the configured rate. The fallback
// slot biases it low by at most rate^clients per round, negligible here.
func TestDropoutScheduleMarginalRate(t *testing.T) {
	t.Parallel()
	const rounds, clients = 4000, 8
	for _, rate := range []float64{0.1, 0.3, 0.5} {
		n := 0
		for r := 0; r < rounds; r++ {
			for c := 0; c < clients; c++ {
				if dropped(99, clients, rate, r, c) {
					n++
				}
			}
		}
		got := float64(n) / float64(rounds*clients)
		if diff := got - rate; diff > 0.02 || diff < -0.02 {
			t.Errorf("rate %.2f: empirical drop rate %.4f (off by %.4f)", rate, got, diff)
		}
	}
}

// TestDropoutScheduleNeverEmpty: at any rate, every round keeps at least
// one connected client (the server's aggregation floor depends on it).
func TestDropoutScheduleNeverEmpty(t *testing.T) {
	t.Parallel()
	for _, rate := range []float64{0.5, 0.9, 1.0} {
		for r := 0; r < 500; r++ {
			live := false
			for c := 0; c < 6; c++ {
				live = live || !dropped(3, 6, rate, r, c)
			}
			if !live {
				t.Fatalf("rate %.1f: round %d has no connected client", rate, r)
			}
		}
	}
}
