// Steady-state fixtures for the round-critical APF hot path, shared by
// BenchmarkManagerRound/BenchmarkAggregate (bench_test.go) and by the
// tier-1 pins below: the steady-state manager round allocates nothing,
// with or without a live telemetry observer, and the fixture lands and
// holds its target frozen ratio. Timings of the same paths are taken in
// situ by bench/ (core.*_ms, trace.overhead_frac, proc.allocs_per_round).
//
// The fixtures use only public core APIs: a Manager is driven through one
// real warm-up window so that an exact, configurable fraction of the model
// freezes (oscillating scalars stabilize, drifting scalars never do), and
// the freezing periods are made effectively infinite so the mask stays
// static over millions of benchmark rounds — the steady state in which the
// per-round cost must be measured.
package apf_test

import (
	"math"
	"testing"

	"apf/internal/core"
	"apf/internal/telemetry"
	"apf/internal/telemetry/hooks"
)

// roundCase is one point of the hot-path benchmark grid.
type roundCase struct {
	Dim    int
	Frozen float64 // target frozen ratio in [0, 1)
}

// roundCases returns the benchmark grid: Dim ∈ {10k, 1M} × frozen ∈ {0, 0.5, 0.95}.
func roundCases() []roundCase {
	var cs []roundCase
	for _, dim := range []int{10_000, 1_000_000} {
		for _, fr := range []float64{0, 0.5, 0.95} {
			cs = append(cs, roundCase{Dim: dim, Frozen: fr})
		}
	}
	return cs
}

// warmupRounds is the check interval of the fixture manager; the warm-up
// drives exactly one window so the first stability check fires on its last
// round.
const warmupRounds = 64

// newManagerAt returns a manager over dim scalars whose mask is frozen at
// the requested ratio and will remain so for ~67M further rounds, together
// with the model vector and the first round the caller should drive. A
// non-nil obs is wired in as the manager's telemetry observer
// (core.Config.Observer); the instrumented and uninstrumented fixtures are
// otherwise identical.
//
// Construction: scalars [0, frozen·dim) receive updates that cancel out
// over the warm-up window (accumulated delta exactly 0 → perfectly
// stable), the rest drift monotonically (effective perturbation 1 → never
// stable). The Fixed freezing policy then pins the stable set for 2^20
// checks, so benchmark iterations never cross an unfreeze.
func newManagerAt(dim int, frozen float64, obs core.Observer) (*core.Manager, []float64, int) {
	m := core.NewManager(core.Config{
		Dim:              dim,
		CheckEveryRounds: warmupRounds,
		Threshold:        0.5,
		EMAAlpha:         0.9,
		Policy:           core.Fixed{Checks: 1 << 20},
		Seed:             1,
		Observer:         obs,
	})
	x := make([]float64, dim)
	nFrozen := int(frozen * float64(dim))
	for round := 0; round < warmupRounds; round++ {
		if round > 0 && round < warmupRounds-1 {
			// Updates in rounds 1..62: 31 of each sign for the stable
			// set (sums to zero since the count is even), +1 drift for
			// the unstable set.
			osc := float64(1 - 2*(round%2))
			for j := 0; j < nFrozen; j++ {
				x[j] += osc
			}
			for j := nFrozen; j < dim; j++ {
				x[j] += 1
			}
		}
		m.PostIterate(round, x)
		contrib, _, _ := m.PrepareUpload(round, x)
		m.ApplyDownload(round, x, contrib)
	}
	return m, x, warmupRounds
}

// steadyRound drives one full steady-state client round through the
// manager: rollback, upload preparation, the compact wire codec in both
// directions, and the download merge (which runs the stability check on
// boundaries).
func steadyRound(m *core.Manager, round int, x []float64) {
	m.PostIterate(round, x)
	contrib, _, _ := m.PrepareUpload(round, x)
	compact := m.CompactUpload(round, contrib)
	dense := m.ExpandDownload(round, compact)
	m.ApplyDownload(round, x, dense)
}

// aggregateClients is the client count of the aggregation benchmark (the
// paper's testbed size).
const aggregateClients = 10

// newAggregateInput builds deterministic per-client contributions and
// weights for a dim-scalar aggregation benchmark.
func newAggregateInput(dim int) (contribs [][]float64, weights []float64) {
	contribs = make([][]float64, aggregateClients)
	weights = make([]float64, aggregateClients)
	for c := range contribs {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64((j+c)%17) - 8
		}
		contribs[c] = v
		weights[c] = 1 + float64(c%3)
	}
	return contribs, weights
}

// TestFixtureFrozenRatio verifies the warm-up lands the manager exactly on
// each case's target frozen ratio before any benchmark round runs.
func TestFixtureFrozenRatio(t *testing.T) {
	for _, c := range roundCases() {
		if c.Dim > 100_000 && testing.Short() {
			continue
		}
		m, x, start := newManagerAt(c.Dim, c.Frozen, nil)
		want := float64(int(c.Frozen*float64(c.Dim))) / float64(c.Dim)
		if got := m.FrozenRatio(); math.Abs(got-want) > 1e-12 {
			t.Fatalf("dim=%d frozen=%v: fixture frozen ratio %v, want %v", c.Dim, c.Frozen, got, want)
		}
		// The mask must stay pinned across steady-state rounds.
		for i := 0; i < 3; i++ {
			steadyRound(m, start+i, x)
		}
		if got := m.FrozenRatio(); math.Abs(got-want) > 1e-12 {
			t.Fatalf("dim=%d frozen=%v: ratio drifted to %v after steady-state rounds", c.Dim, c.Frozen, got)
		}
	}
}

// TestSteadyStateRoundIsAllocationFree is the tentpole's memory-discipline
// guarantee: once the manager's scratch buffers are warm, a full client
// round — rollback, upload, compact codec both ways, download — performs
// zero heap allocations.
func TestSteadyStateRoundIsAllocationFree(t *testing.T) {
	m, x, start := newManagerAt(10_000, 0.5, nil)
	round := start
	steadyRound(m, round, x) // warm the scratch buffers
	round++
	avg := testing.AllocsPerRun(200, func() {
		steadyRound(m, round, x)
		round++
	})
	if avg != 0 {
		t.Fatalf("steady-state round allocates %v times per round, want 0", avg)
	}
}

// TestInstrumentedRoundIsAllocationFree extends the memory-discipline
// guarantee to the observed hot path: a live telemetry registry watching
// the manager through its observer hook must not introduce a single heap
// allocation per round.
func TestInstrumentedRoundIsAllocationFree(t *testing.T) {
	reg := telemetry.New()
	m, x, start := newManagerAt(10_000, 0.5, hooks.Manager(reg))
	round := start
	steadyRound(m, round, x) // warm the scratch buffers
	round++
	avg := testing.AllocsPerRun(200, func() {
		steadyRound(m, round, x)
		round++
	})
	if avg != 0 {
		t.Fatalf("instrumented steady-state round allocates %v times per round, want 0", avg)
	}
	// The observer really fired: the rounds counter tracks every round.
	if got := reg.Snapshot()["apf_manager_rounds_total"]; got == 0 {
		t.Fatal("observer never fired on the instrumented rounds")
	}
}

// TestSteadyStateRoundAcrossCheckBoundary confirms rounds that trigger the
// periodic stability check still work from the benchmark fixture (the check
// itself may allocate; it runs once every CheckEveryRounds).
func TestSteadyStateRoundAcrossCheckBoundary(t *testing.T) {
	m, x, start := newManagerAt(10_000, 0.95, nil)
	for i := 0; i < 2*warmupRounds; i++ {
		steadyRound(m, start+i, x)
	}
	want := float64(9_500) / 10_000
	if got := m.FrozenRatio(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("frozen ratio %v after crossing check boundaries, want %v", m.FrozenRatio(), want)
	}
}
