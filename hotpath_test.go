// Steady-state fixtures for the round-critical APF hot path, shared by
// BenchmarkManagerRound/BenchmarkAggregate (bench_test.go) and by the
// tier-1 pins below: the steady-state manager round allocates nothing,
// with or without a live telemetry observer, and the fixture lands and
// holds its target frozen ratio. Timings of the same paths are taken in
// situ by bench/ (core.*_ms, trace.overhead_frac, proc.allocs_per_round).
// The training-step fixtures below (shared with BenchmarkTrainStep) pin
// the other half of a client round: a steady-state local step allocates
// nothing, and its float trajectory is bit-identical to the recorded one.
// The coordinator's durable commit — one WAL append — allocates nothing
// either. The exact reduction's bits are pinned through every pipeline
// that produces a global (flat, streamed, relayed), and the dense codec's
// allocations are pinned at the dense-256k model size.
//
// The fixtures use only public core APIs: a Manager is driven through one
// real warm-up window so that an exact, configurable fraction of the model
// freezes (oscillating scalars stabilize, drifting scalars never do), and
// the freezing periods are made effectively infinite so the mask stays
// static over millions of benchmark rounds — the steady state in which the
// per-round cost must be measured.
package apf_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"apf/internal/checkpoint"
	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/models"
	"apf/internal/nn"
	"apf/internal/opt"
	"apf/internal/preset"
	"apf/internal/quantize"
	"apf/internal/telemetry"
	"apf/internal/tensor"
	"apf/internal/wire"
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
	m.ApplyDownload(round, x, exchange(m, round, x))
}

// exchange is steadyRound up to the download merge: it returns the dense
// global that round's ApplyDownload takes.
func exchange(m *core.Manager, round int, x []float64) []float64 {
	m.PostIterate(round, x)
	contrib, _, _ := m.PrepareUpload(round, x)
	compact := m.CompactUpload(round, contrib)
	return m.ExpandDownload(round, compact)
}

// newRandomManagerAt returns an APF# manager in sparse-q16-durable's shape
// (a check every round, each unstable scalar frozen with probability 0.9
// for one round) over the model x, warmed past its first checks by the
// given round driver (driftRound or settleRound), and the next round to
// drive.
func newRandomManagerAt(x []float64, drive func(*core.Manager, int, []float64)) (*core.Manager, int) {
	const warm = 4
	m := core.NewManager(core.Config{Dim: len(x), Seed: 1, CheckEveryRounds: 1,
		Random: core.RandomFreeze{Mode: core.RandomFixed, Prob: 0.9}})
	for round := 0; round < warm; round++ {
		drive(m, round, x)
	}
	return m, warm
}

// bytesPerScalar measures what build allocates and keeps the way table4
// measures a manager: the live heap (HeapAlloc after a GC) before and
// after, per scalar of the model x, which build may drive and which is
// kept alive through the measurement. Whatever else build uses must be
// allocated before the call.
func bytesPerScalar(x []float64, build func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(x)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(x))
}

// driftRound is steadyRound after a local step that moves every scalar the
// same way, so no scalar ever turns stable and the mask stays APF#'s fresh
// draw.
func driftRound(m *core.Manager, round int, x []float64) {
	driftStep(x)
	steadyRound(m, round, x)
}

// driftStep is driftRound's local step.
func driftStep(x []float64) {
	for j := range x {
		x[j] += 0x1p-10
	}
}

// settleRound is driftRound with every other scalar standing still: its
// checked update is 0, which is perfectly stable, so AIMD freezes it for
// ever longer periods and the check takes its stability-frozen branch for
// it, as sparse-q16-durable's check does for the scalars training settles.
func settleRound(m *core.Manager, round int, x []float64) {
	settleStep(x)
	steadyRound(m, round, x)
}

// settleStep is settleRound's local step.
func settleStep(x []float64) {
	for j := 1; j < len(x); j += 2 {
		x[j] += 0x1p-10
	}
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

// dense256kUpdates returns the dense-256k workload's round as the server
// sees it: the flattened dense256k models of the given number of clients
// (seeds 1, 2, ...), each weighted 1 as the passthrough manager weights
// its uploads.
func dense256kUpdates(clients int) (contribs [][]float64, weights []float64) {
	for c := 0; c < clients; c++ {
		f := dense256kFixture(int64(c + 1))
		contribs = append(contribs, nn.FlattenParams(f.net.Params(), nil))
		weights = append(weights, 1)
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
	m, x, start := newManagerAt(10_000, 0.5, telemetry.ManagerObserver(reg))
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

// TestManagerFootprint pins what a warm manager holds at
// sparse-q16-durable's model size, measured the way table4 measures it.
// The state is 48 B/scalar (ref, the check baseline, the two EMAs and the
// period at 8 bytes, the two round deadlines at 4) plus its bitmaps and
// word generations; the one dim-length scratch adds 8, and the compact
// buffer 8 per unfrozen scalar and a quarter. That is about 57.5 B/scalar
// for an APF# manager (0.9 fixed) and about 64.5 for an APF manager with
// nothing frozen. The limits sit halfway to what a second dim-length
// scratch would add (8 B/scalar), so that one fails them and the
// allocator's rounding does not.
func TestManagerFootprint(t *testing.T) {
	const dim = 264_970
	x := make([]float64, dim)
	var random *core.Manager
	got := bytesPerScalar(x, func() { random, _ = newRandomManagerAt(x, driftRound) })
	if r := random.FrozenRatio(); math.Abs(r-0.9) > 0.01 {
		t.Fatalf("precondition: APF# frozen ratio %v, want about 0.9", r)
	}
	t.Logf("warm APF# manager: %.2f B/scalar", got)
	if got < 48 || got > 61 {
		t.Errorf("warm APF# manager holds %.1f B/scalar, want 48 to 61", got)
	}
	x = make([]float64, dim)
	var plain *core.Manager
	got = bytesPerScalar(x, func() {
		plain = core.NewManager(core.Config{Dim: dim, Seed: 1})
		steadyRound(plain, 0, x)
	})
	if r := plain.FrozenRatio(); r != 0 {
		t.Fatalf("precondition: APF frozen ratio %v, want 0", r)
	}
	t.Logf("warm APF manager, nothing frozen: %.2f B/scalar", got)
	if got < 48 || got > 68 {
		t.Errorf("warm APF manager with nothing frozen holds %.1f B/scalar, want 48 to 68", got)
	}
}

// TestWALAppendIsAllocationFree pins the durable commit's memory
// discipline: once the store's record buffer has grown to the record size,
// a steady-state Append — stamp, frame and checksum built in that buffer,
// written in place, fsync'd — allocates nothing.
func TestWALAppendIsAllocationFree(t *testing.T) {
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.WriteSnapshot(0, []byte("base")); err != nil {
		t.Fatal(err)
	}
	record := make([]byte, 4096)
	appendRecord := func() {
		if _, err := st.Append(record); err != nil {
			t.Fatal(err)
		}
	}
	appendRecord() // grow the record buffer
	if avg := testing.AllocsPerRun(20, appendRecord); avg != 0 {
		t.Fatalf("steady-state WAL append allocates %v times, want 0", avg)
	}
}

// ---- Training step: 0-alloc and trajectory pins ----

// trainFixture is one model with its optimizer and a batch source: the unit
// of local training every client repeats LocalIters times per round.
type trainFixture struct {
	net   *nn.Network
	optim opt.Optimizer
	next  func() (*tensor.Tensor, []int)
}

// step runs one local training iteration.
func (f *trainFixture) step() {
	x, y := f.next()
	nn.ZeroGrads(f.net.Params())
	f.net.LossGrad(x, y)
	f.optim.Step()
}

// hash fingerprints the flat parameter vector (FNV-1a over the float bits).
func (f *trainFixture) hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range nn.FlattenParams(f.net.Params(), nil) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// batches draws shuffled batches of size batch from the whole of ds.
func batches(ds *data.Dataset, batch int, seed int64) func() (*tensor.Tensor, []int) {
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	return data.NewBatcher(ds, idx, batch, rand.New(rand.NewSource(seed))).Next
}

// fixed replays one batch forever, so a step does no data work.
func fixed(next func() (*tensor.Tensor, []int)) func() (*tensor.Tensor, []int) {
	x, y := next()
	return func() (*tensor.Tensor, []int) { return x, y }
}

// presetFixture is a named preset's model, optimizer and batch size.
func presetFixture(t testing.TB, name string, seed int64) *trainFixture {
	p, err := preset.Load(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	net := p.Model(rand.New(rand.NewSource(seed)))
	return &trainFixture{net: net, optim: p.Optimizer(net.Params()), next: batches(p.Data, p.Batch, seed)}
}

// dense256kFixture is bench/'s dense256k model (Flatten→Dense(1024,256)→
// Tanh→Dense(256,10), SGD 0.05) at its batch of one 32×32 image.
func dense256kFixture(seed int64) *trainFixture {
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewNetwork(
		nn.NewFlatten(),
		nn.NewDense(rng, "fc1", 1024, 256),
		nn.NewTanh(),
		nn.NewDense(rng, "fc2", 256, 10),
	)
	ds := data.SynthImages(data.ImageConfig{Classes: 10, Channels: 1, Size: 32, Samples: 4, NoiseStd: 0.5, Seed: seed})
	return &trainFixture{net: net, optim: opt.NewSGD(net.Params(), 0.05, 0, 0), next: batches(ds, 1, seed)}
}

// resnet8Fixture is the experiments' residual network (batch norm, padded
// and strided convolutions, projection shortcuts) on the lenet preset's
// images, trained with momentum SGD and weight decay.
func resnet8Fixture(t testing.TB, seed int64) *trainFixture {
	p, err := preset.Load("lenet", seed)
	if err != nil {
		t.Fatal(err)
	}
	net := models.ResNet(rand.New(rand.NewSource(seed)), models.ResNet8Config(), 1, 10)
	return &trainFixture{net: net, optim: opt.NewSGD(net.Params(), 0.05, 0.9, 5e-4), next: batches(p.Data, 10, seed)}
}

// TestTrainStepIsAllocationFree pins the training step's memory discipline
// in situ: once every layer's workspace is built, a step of both bench
// models — data.Batcher.Next, ZeroGrads, LossGrad and the optimizer Step —
// performs zero heap allocations, across the batcher's epoch reshuffles
// (dense256k's four samples at batch 1 reshuffle every fourth step).
func TestTrainStepIsAllocationFree(t *testing.T) {
	for name, f := range map[string]*trainFixture{
		"lenet":     presetFixture(t, "lenet", 1),
		"dense256k": dense256kFixture(1),
	} {
		f.step() // build the workspaces
		if avg := testing.AllocsPerRun(20, f.step); avg != 0 {
			t.Errorf("%s: steady-state training step allocates %v times, want 0", name, avg)
		}
	}
}

// TestTrainTrajectoryPinned pins the exact float trajectory of local
// training: the parameter hash after a fixed number of seeded steps. Kernel
// or layer changes must keep every rounded operation in its order, so these
// constants (recorded with the unblocked matrix loops and per-call
// allocation) only move with a deliberate change of numerics.
func TestTrainTrajectoryPinned(t *testing.T) {
	for _, c := range []struct {
		name  string
		f     func() *trainFixture
		steps int
		want  uint64
	}{
		{"lenet", func() *trainFixture { return presetFixture(t, "lenet", 1) }, 50, 0xb43bad4661515813},
		{"dense256k", func() *trainFixture { return dense256kFixture(1) }, 8, 0xd773650ec987888d},
		{"resnet8", func() *trainFixture { return resnet8Fixture(t, 1) }, 6, 0x1bbd4622d1a0200f},
		{"lstm", func() *trainFixture { return presetFixture(t, "lstm", 1) }, 20, 0x0040990a262199a3},
	} {
		f := c.f()
		for i := 0; i < c.steps; i++ {
			f.step()
		}
		if got := f.hash(); got != c.want {
			t.Errorf("%s: parameters after %d steps hash to %#016x, want %#016x", c.name, c.steps, got, c.want)
		}
	}
}

// TestSteadyStateRoundAcrossCheckBoundary confirms rounds that trigger the
// periodic stability check work from the benchmark fixture and allocate
// nothing, the check included: the fixture's check every 64 rounds, and an
// APF# manager that checks and draws every round.
func TestSteadyStateRoundAcrossCheckBoundary(t *testing.T) {
	m, x, round := newManagerAt(10_000, 0.95, nil)
	avg := testing.AllocsPerRun(2*warmupRounds, func() {
		steadyRound(m, round, x)
		round++
	})
	want := float64(9_500) / 10_000
	if got := m.FrozenRatio(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("frozen ratio %v after crossing check boundaries, want %v", m.FrozenRatio(), want)
	}
	if avg != 0 {
		t.Errorf("rounds across check boundaries allocate %v times per round, want 0", avg)
	}

	xr := make([]float64, 10_000)
	r, round := newRandomManagerAt(xr, driftRound)
	checks := r.Checks()
	avg = testing.AllocsPerRun(50, func() {
		driftRound(r, round, xr)
		round++
	})
	if got := r.Checks() - checks; got != 51 {
		t.Fatalf("APF# manager ran %d checks in 51 rounds, want 51", got)
	}
	if got := r.FrozenRatio(); math.Abs(got-0.9) > 0.02 {
		t.Fatalf("APF# frozen ratio %v, want about 0.9", got)
	}
	if avg != 0 {
		t.Errorf("APF# rounds, each with a check, allocate %v times per round, want 0", avg)
	}
}

// TestCompactBufferSettles pins the sizing rule of the compact buffer
// (checkpoint.Refit) over long runs: once warm, 2,000 APF# rounds allocate
// nothing, both while the unfrozen count is a binomial around a tenth of
// the model (driftRound) and while it falls and rises as scalars turn
// stable and thaw (settleRound). A buffer sized exactly to each round's
// count, or with a sixteenth of headroom, is reallocated at new maxima of
// drift's binomial; one replaced once the count falls under half its
// capacity chases settle's count down and back up. All of these fail here.
func TestCompactBufferSettles(t *testing.T) {
	for _, d := range []struct {
		name  string
		drive func(*core.Manager, int, []float64)
	}{{"drift", driftRound}, {"settle", settleRound}} {
		x := make([]float64, 10_000)
		m, round := newRandomManagerAt(x, d.drive)
		n := moduleMallocs(func() {
			for end := round + 2_000; round < end; round++ {
				d.drive(m, round, x)
			}
		})
		if n != 0 {
			t.Errorf("%s: 2,000 warm APF# rounds allocated %d times, want 0", d.name, n)
		}
	}
}

// moduleMallocs runs f and returns the heap allocations made during it
// whose stack passes through this module's code. A process-wide count
// (runtime.MemStats.Mallocs) also sees the runtime's own: a new OS thread
// for an idle P, or the unique package's cleanup after a GC, allocates a
// few objects now and then, which failed a zero pin on them about one run
// in 30. With MemProfileRate at 1 the allocs profile records every
// allocation with its stack.
func moduleMallocs(f func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := moduleAllocs()
	f()
	return moduleAllocs() - before
}

// moduleAllocs is the allocs profile's count of objects allocated under
// this module's functions, its own reads of the profile aside.
func moduleAllocs() int64 {
	runtime.GC() // the profile publishes what was allocated before a completed cycle
	var recs []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
		recs = recs[:n]
	}
	var total int64
	for _, r := range recs {
		module := false
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var fr runtime.Frame
			fr, more = frames.Next()
			if strings.HasSuffix(fr.Function, ".moduleAllocs") {
				module = false
				break
			}
			if strings.HasPrefix(fr.Function, "apf/") || strings.HasPrefix(fr.Function, "apf.") ||
				strings.HasPrefix(fr.Function, "apf_test.") {
				module = true
			}
		}
		if module {
			total += r.AllocObjects
		}
	}
	return total
}

// ---- Exact reduction: pinned bits; dense codec: pinned allocations ----

// reductionInput is one seeded round of 4 clients over 2,001 coordinates
// built to reach every branch of the exact fold. Random columns mix
// products below and above ½ in magnitude, so the float→fixed conversion
// takes both of its paths, and column sums on both sides of ±½, so the
// fixed→float conversion does too. Fixed columns add conversion ties
// (odd multiples of 2^-65), a column sum tied between two floats, sums of
// exactly +½ and −½, and — last — a column whose sum overflows the
// accumulator (2^62 + 1.5·2^62 ≥ 2^63) although each product converts.
func reductionInput() (contribs [][]float64, weights []float64) {
	const dim = 2001
	rng := rand.New(rand.NewSource(31))
	weights = []float64{0.25, 1, 3, 1.5}
	contribs = make([][]float64, len(weights))
	for k := range contribs {
		c := make([]float64, dim)
		for j := range c {
			c[j] = math.Ldexp(rng.NormFloat64(), rng.Intn(14)-12)
		}
		contribs[k] = c
	}
	set := func(j int, byClient ...float64) {
		for k := range contribs {
			contribs[k][j] = byClient[k]
		}
	}
	set(0, 0, 0x3p-65, 0, 0)        // 1.5 units: ties to 2
	set(1, 0, -0x5p-65, 0, 0)       // −2.5 units: ties to −2
	set(2, 0x1p-8, 0x1p-63, 0, 0)   // 2^54 + 2 units: ties to 2^54 on the way back
	set(3, 0, 0.25, 0x1p-3, -0.25)  // +½ exactly
	set(4, 0, -0.25, -0x1p-3, 0.25) // −½ exactly
	set(dim-1, 0, 0x1p62, 0, 0x1p62)
	return contribs, weights
}

// hashFloats fingerprints a float vector (FNV-1a over the bits).
func hashFloats(v []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestExactReductionPinned pins the bits of the exact weighted mean — the
// Q64.64 conversions and the admission bound — on reductionInput, through
// the flat collection (Open/Add/Reduce) on 1 and 4 workers, a streamed
// Partial.Fold, and the relay hop (two relays' exported partials packed,
// parsed and merged at a root). The constants were recorded with the
// bit-by-bit conversions, before their hardware fast paths; every pipeline
// must reproduce them over the clean columns, and every one must refuse
// client 1's contribution at the overflowing column's scalar (2^62 is past
// the per-term bound).
func TestExactReductionPinned(t *testing.T) {
	const (
		wantMean uint64 = 0xedd3b464cedf0170 // first 2,000 coordinates of the mean, any pipeline
		wantSums uint64 = 0xef8161743460f1ce // the two relays' packed Q64.64 column sums
	)
	contribs, weights := reductionInput()
	dim := len(contribs[0])
	clean := make([][]float64, len(contribs))
	for k, c := range contribs {
		clean[k] = c[:dim-1]
	}
	// The input reaches both paths of both conversions.
	var bigProducts, bigSums int
	for j := 0; j < dim-1; j++ {
		var sum float64
		for k, c := range clean {
			if math.Abs(weights[k]*c[j]) >= 0.5 {
				bigProducts++
			}
			sum += weights[k] * c[j]
		}
		if math.Abs(sum) >= 0.5 {
			bigSums++
		}
	}
	if n := len(clean) * (dim - 1); bigProducts < n/10 || bigProducts > n*9/10 || bigSums < dim/10 || bigSums > dim*9/10 {
		t.Fatalf("input does not mix magnitudes: %d of %d products and %d of %d column sums are ≥ ½", bigProducts, n, bigSums, dim-1)
	}

	for _, workers := range []int{1, 4} {
		agg := fl.NewAggregator(workers)
		agg.Open(0, len(contribs))
		if err := agg.Add(1, contribs[1], weights[1]); !errors.Is(err, fl.ErrAccumOverflow) || !strings.Contains(err.Error(), "scalar 2000 is") {
			t.Errorf("%d worker(s): Add of the overflowing column = %v; want client 1 refused at scalar 2000", workers, err)
		}
		for k, c := range clean {
			if err := agg.Add(k, c, weights[k]); err != nil {
				t.Fatal(err)
			}
		}
		dst := make([]float64, dim-1)
		_, ok := agg.Reduce(dst)
		agg.Close()
		if !ok {
			t.Fatalf("%d worker(s): nothing aggregated", workers)
		}
		if got := hashFloats(dst); got != wantMean {
			t.Errorf("%d worker(s): Open/Add/Reduce hashes to %#016x, want %#016x", workers, got, wantMean)
		}
	}

	var refused fl.Partial
	var err error
	for k, c := range contribs {
		if err = refused.Fold(c, weights[k]); err != nil {
			break
		}
	}
	if !errors.Is(err, fl.ErrAccumOverflow) || !strings.Contains(err.Error(), "scalar 2000 is") || refused.Count != 1 {
		t.Errorf("fold over the overflowing column: err = %v after %d folds; want client 1 refused at scalar 2000", err, refused.Count)
	}
	var flat fl.Partial
	for k, c := range clean {
		if err := flat.Fold(c, weights[k]); err != nil {
			t.Fatal(err)
		}
	}
	mean := make([]float64, dim-1)
	if !flat.Mean(mean) {
		t.Fatal("streamed partial did not aggregate")
	}
	if got := hashFloats(mean); got != wantMean {
		t.Errorf("Partial.Fold → Mean hashes to %#016x, want %#016x", got, wantMean)
	}

	var root fl.Partial
	h := fnv.New64a()
	for _, group := range [][]int{{0, 1}, {2, 3}} {
		relay := fl.NewAggregator(1)
		relay.SetStreaming(true)
		relay.Open(0, len(clean))
		for _, k := range group {
			if err := relay.Add(k, clean[k], weights[k]); err != nil {
				t.Fatal(err)
			}
		}
		var part fl.Partial
		relay.ExportPartial(&part)
		relay.Close()
		packed := part.AppendPacked(nil)
		h.Write(packed)
		cols, err := fl.ParsePacked(dim-1, part.Count, packed)
		if err != nil {
			t.Fatal(err)
		}
		if err := root.Merge(&fl.Partial{Count: part.Count, WeightLo: part.WeightLo, WeightHi: part.WeightHi, Packed: cols}); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Sum64(); got != wantSums {
		t.Errorf("relays' packed sums hash to %#016x, want %#016x", got, wantSums)
	}
	if !root.Mean(mean) {
		t.Fatal("merged partial did not aggregate")
	}
	if got := hashFloats(mean); got != wantMean {
		t.Errorf("ExportPartial → AppendPacked → ParsePacked → Merge → Mean hashes to %#016x, want %#016x", got, wantMean)
	}
}

// TestDenseCodecAllocations pins the dense codec's memory discipline at
// the dense-256k model size: encoding a dense update or global into a
// fresh frame is one allocation (the frame, grown once — never a chain of
// doubling copies), re-framing into a buffer already large enough is
// none, and decoding a dense slice is one (the slice). The collector is
// held off while counting: each cycle makes wire's framer pool rebuild
// its per-CPU slots, one small allocation per cycle rather than per frame.
// Under the race detector, which drops pooled objects at random, only the
// decode count is checked.
func TestDenseCodecAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	contribs, _ := dense256kUpdates(1)
	payload := contribs[0]
	update := &wire.UpdateMsg{Round: 3, Weight: 1, MaskHash: 7, Payload: payload}
	global := &wire.GlobalMsg{Round: 3, Participants: 4, Payload: payload}
	for name, m := range map[string]wire.Msg{"update": update, "global": global} {
		if raceEnabled {
			break // both counts rest on wire's framer pool reusing its object
		}
		if n := testing.AllocsPerRun(5, func() { wire.Encode(m) }); n != 1 {
			t.Errorf("Encode(%s) allocates %v times, want 1", name, n)
		}
		buf := wire.Encode(m)
		if n := testing.AllocsPerRun(5, func() { buf = wire.Append(buf[:0], m) }); n != 0 {
			t.Errorf("Append(%s) into a large enough buffer allocates %v times, want 0", name, n)
		}
	}
	w := checkpoint.NewWriter(nil)
	w.F64s(payload)
	body := w.Bytes()
	if n := testing.AllocsPerRun(5, func() {
		if got := checkpoint.NewReader(body).F64s(); len(got) != len(payload) {
			t.Fatalf("decoded %d scalars, want %d", len(got), len(payload))
		}
	}); n != 1 {
		t.Errorf("Reader.F64s allocates %v times, want 1", n)
	}
}

// frameReadCase is one frame a socket reader streams: its name, the frame
// and the vector its payload decodes to.
type frameReadCase struct {
	name  string
	frame []byte
	want  []float64
}

// frameReadCases frames a dense-256k update three ways: dense, and
// compacted to every tenth scalar (about 10 % unfrozen) as a sparse and a
// sparse-q16 update.
func frameReadCases(contrib []float64) []frameReadCase {
	compact := make([]float64, 0, len(contrib)/10+1)
	for i := 0; i < len(contrib); i += 10 {
		compact = append(compact, contrib[i])
	}
	sparse := func(enc wire.Enc) []byte {
		return wire.Encode(&wire.SparseUpdateMsg{Round: 7, Weight: 1, MaskHash: 7, MaskGen: 3,
			Dim: len(contrib), Enc: enc, Values: compact})
	}
	return []frameReadCase{
		{"dense", wire.Encode(&wire.UpdateMsg{Round: 7, Weight: 1, MaskHash: 7, Payload: contrib}), contrib},
		{"sparse", sparse(wire.EncF64), compact},
		{"sparse-q16", sparse(wire.EncF16), quantize.RoundTripSlice(append([]float64(nil), compact...))},
	}
}

// payloadOf returns a decoded update's payload vector.
func payloadOf(m wire.Msg) []float64 {
	switch u := m.(type) {
	case *wire.UpdateMsg:
		return u.Payload
	case *wire.SparseUpdateMsg:
		return u.Values
	}
	return nil
}

// TestFrameReadAllocations pins the streaming decode at the dense-256k
// model size: once its chunk is built, a FrameReader reading a dense, a
// sparse or a sparse-q16 update into a vector its Alloc supplies allocates
// the message and nothing else — no body buffer, no payload slice — and
// hands back the frame's scalars bit for bit.
func TestFrameReadAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	contribs, _ := dense256kUpdates(1)
	dst := make([]float64, len(contribs[0]))
	fr := wire.FrameReader{Alloc: func(n int) []float64 { return dst[:n] }}
	for _, c := range frameReadCases(contribs[0]) {
		var rd bytes.Reader
		read := func() {
			rd.Reset(c.frame)
			m, err := fr.Read(&rd, 0)
			if err != nil {
				t.Fatal(err)
			}
			if p := payloadOf(m); &p[0] != &dst[0] {
				t.Fatalf("%s: payload not streamed into the supplied vector", c.name)
			}
		}
		read() // build the chunk
		if hashFloats(dst[:len(c.want)]) != hashFloats(c.want) {
			t.Fatalf("%s: streamed payload differs from the encoded one", c.name)
		}
		if n := testing.AllocsPerRun(5, read); n > 1 {
			t.Errorf("FrameReader.Read of a %s update allocates %v times, want ≤ 1 (the message)", c.name, n)
		}
	}
}

// TestBoundFlatIsAllocationFree pins what binding buys the client: once
// nn.BindFlat made the parameters views of x, FlattenParams into x and
// SetFlat from x allocate nothing and copy nothing — a sentinel written
// through x is what the parameter holds, and neither call overwrites it
// with a stale copy.
func TestBoundFlatIsAllocationFree(t *testing.T) {
	params := dense256kFixture(1).net.Params()
	x := make([]float64, nn.ParamCount(params))
	nn.BindFlat(params, x)
	const sentinel = -1234.5
	x[len(x)-1] = sentinel
	if n := testing.AllocsPerRun(5, func() {
		x = nn.FlattenParams(params, x)
		nn.SetFlat(params, x)
	}); n != 0 {
		t.Errorf("FlattenParams/SetFlat over a bound vector allocate %v times, want 0", n)
	}
	last := params[len(params)-1].Data.Data
	if x[len(x)-1] != sentinel || last[len(last)-1] != sentinel {
		t.Errorf("sentinel reads %v in x and %v in the parameter, want %v in both", x[len(x)-1], last[len(last)-1], sentinel)
	}
}
