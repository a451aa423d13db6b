// Package core implements Adaptive Parameter Freezing (APF) — the paper's
// contribution — as a client-side synchronization manager. It identifies
// stable ("mature") scalars by their effective perturbation, freezes them
// at their last synchronized value for adaptively controlled periods, and
// excludes them from both the push and pull phases of synchronization.
//
// The manager mirrors the paper's Alg. 1 / Fig. 8 / Fig. 10 design:
//
//   - Fine-grained (per-scalar) freezing is emulated by rolling frozen
//     scalars back after every local update (PostIterate).
//   - Every synchronization exchanges only the unfrozen scalars; the
//     freezing bitmap M_is_frozen is computed independently on every
//     client from synchronized state, so it never crosses the wire and is
//     identical everywhere.
//   - Stability is checked once every Fc rounds from the accumulated
//     update since the previous check, smoothed with exponential moving
//     averages (Eq. 17).
//   - Freezing periods follow a pluggable FreezePolicy; the default AIMD
//     policy additively lengthens the period while a parameter remains
//     stable after unfreezing and halves it when the parameter drifts.
//     (Alg. 1's tensor-selection formulation applies its updates to all
//     parameters each check; as in the paper's authoritative Fig. 8
//     flowchart, a frozen parameter's period must only be re-adjusted
//     after it has resumed training, so checks here skip still-frozen
//     scalars.)
//   - The stability threshold halves whenever the frozen fraction reaches
//     ThresholdDecayFrac (§6.1, "stability threshold decay").
//   - APF# and APF++ additionally freeze random unstable scalars
//     (§5), with a fixed or a growing probability/length respectively.
//
// Because the freezing state is a pure function of the synchronized
// trajectory, a server can hold it too without training anything. Follower
// is the one replica that does: a Manager fed only committed aggregates.
// Transport catch-up serves its captures (whole, or restricted to the
// mask words a sketch found different: State.Select), and the §9
// server-side mask placement (MaskServer) ships its mask.
package core

import (
	"fmt"
	"math"
	"math/bits"

	"apf/internal/bitset"
	"apf/internal/checkpoint"
	"apf/internal/perturb"
	"apf/internal/stats"
)

// RandomFreezeMode selects the §5 extension behaviour.
type RandomFreezeMode int

// Random-freezing modes.
const (
	// RandomOff disables random freezing (standard APF).
	RandomOff RandomFreezeMode = iota + 1
	// RandomFixed is APF#: every unstable scalar is frozen for one round
	// with a fixed probability.
	RandomFixed
	// RandomGrowing is APF++: the freezing probability is a1·K and the
	// freezing length is drawn from U[1, 1+a2·K], K being the round.
	RandomGrowing
)

// RandomFreeze configures APF# / APF++.
type RandomFreeze struct {
	Mode RandomFreezeMode
	// Prob is APF#'s fixed freezing probability (paper: 0.5).
	Prob float64
	// ProbGrowth is APF++'s a1 (probability = a1·K, capped at 1).
	ProbGrowth float64
	// LenGrowth is APF++'s a2 (length ~ U[1, 1+a2·K] rounds).
	LenGrowth float64
}

// Config parameterizes a Manager.
type Config struct {
	// Dim is the flat model length.
	Dim int
	// CheckEveryRounds is the stability-check interval Fc expressed in
	// rounds (the paper's default Fs=10, Fc=50 gives 5).
	CheckEveryRounds int
	// Threshold is the initial stability threshold on effective
	// perturbation (paper: 0.05).
	Threshold float64
	// ThresholdDecayFrac halves Threshold whenever at least this fraction
	// of parameters is frozen (paper: 0.8). 0 disables decay.
	ThresholdDecayFrac float64
	// EMAAlpha is the effective-perturbation smoothing factor (paper: 0.99).
	EMAAlpha float64
	// BytesPerValue is the wire size of one transmitted scalar (paper: 4,
	// i.e. float32).
	BytesPerValue int
	// Policy controls freezing periods; nil selects AIMD.
	Policy FreezePolicy
	// Random configures the APF#/APF++ extensions; zero value disables.
	Random RandomFreeze
	// Seed drives the shared random-freezing stream. All clients must use
	// the same seed so their masks agree (decisions are a deterministic
	// function of (Seed, check index), never of client state).
	Seed int64
	// Observer receives freezing-state events; nil disables. Implementations
	// must be cheap and must not call back into the Manager — they run
	// synchronously on the round hot path, which stays allocation-free
	// (scalar arguments only, no boxing).
	Observer Observer
}

// Observer is the narrow instrumentation hook through which external
// telemetry watches a Manager. core deliberately defines the interface
// itself and carries no metrics dependency; the adapter lives with the
// telemetry plane and is injected via Config.Observer.
type Observer interface {
	// RoundApplied fires once per ApplyDownload with the freezing state
	// that governed the round: frozen scalars out of dim total.
	RoundApplied(round, frozen, dim int)
	// StabilityChecked fires after stability check number check (1-based)
	// ran at round, having newly frozen the given number of scalars by
	// stability (random freezing not included).
	StabilityChecked(check, round, frozen int)
	// ThresholdDecayed fires when the stability threshold halves,
	// reporting the new threshold.
	ThresholdDecayed(threshold float64)
}

// withDefaults fills unset fields with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.CheckEveryRounds == 0 {
		c.CheckEveryRounds = 5
	}
	if c.Threshold == 0 {
		c.Threshold = 0.05
	}
	if c.ThresholdDecayFrac == 0 {
		c.ThresholdDecayFrac = 0.8
	}
	if c.EMAAlpha == 0 {
		c.EMAAlpha = 0.99
	}
	if c.BytesPerValue == 0 {
		c.BytesPerValue = 4
	}
	if c.Policy == nil {
		c.Policy = AIMD{}
	}
	if c.Random.Mode == 0 {
		c.Random.Mode = RandomOff
	}
	return c
}

// Manager is the per-client APF synchronization manager (the paper's
// APF_Manager module). It implements the fl.SyncManager contract.
type Manager struct {
	cfg Config

	ref       []float64 // last synchronized values: rollback targets
	lastCheck []float64 // values at the previous stability check
	tracker   *perturb.EMATracker

	period []float64 // AIMD state, in rounds
	// Freezing deadlines, saturated at math.MaxInt32 (see deadline).
	unfreezeAt  []int32 // round at which stability freezing expires
	randomUntil []int32 // round at which random freezing expires

	mask      *bitset.BitSet // frozen scalars for maskRound
	maskRound int
	// maskCount is the set-bit count of mask (cached with each rebuild).
	maskCount int
	// maskValidUntil is the last round (inclusive) for which the current
	// mask words stay correct: freezing deadlines only change at stability
	// checks, so between checks the mask is static until the earliest
	// frozen scalar's deadline expires. Rounds inside the window skip the
	// O(Dim) rebuild entirely.
	maskValidUntil int

	// wordGen tracks, per 64-scalar word, round+1 of the last round
	// that mutated any synchronized state in it (0 = never). See
	// recon.go for the touch-site inventory and the replica-identity
	// invariant it maintains.
	wordGen []uint32

	// rng is the random-freezing draw stream, re-seeded in place by every
	// check that draws (nil until the first).
	rng *stats.SplitStream

	threshold   float64
	checkCount  int
	initialized bool
	initRound   int
	// lastRound is the most recent round observed by ApplyDownload; lazy
	// mask refreshes (FrozenRatio/MaskWords after a check reset) derive
	// their round from it rather than guessing from the check count.
	lastRound int

	// Hot-path scratch, allocated on first use and reused every round so
	// steady-state rounds allocate nothing; see the method contracts.
	// scratch is Dim long and backs both PrepareUpload's contribution and
	// ExpandDownload's dense global: no caller holds a contribution
	// across a download. compact backs CompactUpload and is sized to the
	// compact length (checkpoint.Refit), not to Dim.
	scratch []float64
	compact []float64
}

// NewManager constructs an APF manager.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	if cfg.Dim <= 0 {
		panic(fmt.Sprintf("core: invalid model dimension %d", cfg.Dim))
	}
	if cfg.CheckEveryRounds <= 0 {
		panic(fmt.Sprintf("core: invalid check interval %d", cfg.CheckEveryRounds))
	}
	m := &Manager{
		cfg:            cfg,
		ref:            make([]float64, cfg.Dim),
		lastCheck:      make([]float64, cfg.Dim),
		tracker:        perturb.NewEMATracker(cfg.Dim, cfg.EMAAlpha),
		period:         make([]float64, cfg.Dim),
		unfreezeAt:     make([]int32, cfg.Dim),
		randomUntil:    make([]int32, cfg.Dim),
		mask:           bitset.New(cfg.Dim),
		wordGen:        make([]uint32, (cfg.Dim+63)/64),
		maskRound:      -1,
		maskValidUntil: -1,
		threshold:      cfg.Threshold,
		initRound:      -1,
		lastRound:      -1,
	}
	return m
}

// deadline returns the round at which a freeze of length rounds that
// starts at round next expires, saturated at math.MaxInt32. Only
// Permanent's period reaches the saturation point, and it means "forever"
// for every round a run can reach; below it the deadline is next +
// int(length) exactly.
func deadline(next int, length float64) int32 {
	if length < float64(math.MaxInt32-next) {
		return int32(next + int(length))
	}
	return math.MaxInt32
}

// scratchFor returns the manager-owned scratch vector, allocated on first
// use.
func (m *Manager) scratchFor() []float64 {
	if m.scratch == nil {
		m.scratch = make([]float64, m.cfg.Dim)
	}
	return m.scratch
}

// refreshMask makes the freezing bitmap current for round. Scalars only
// gain freezing deadlines at stability checks (which invalidate the mask
// outright), so a mask built for an earlier round stays correct until the
// first frozen deadline expires; advancing inside that window is O(1).
func (m *Manager) refreshMask(round int) {
	if m.maskRound == round {
		return
	}
	if m.maskRound >= 0 && round > m.maskRound && round <= m.maskValidUntil {
		m.maskRound = round
		return
	}
	count := 0
	validUntil := math.MaxInt
	m.mask.Fill(func(j int) bool {
		until := int(max(m.unfreezeAt[j], m.randomUntil[j])) // j unfreezes at round until
		if round >= until {
			return false
		}
		count++
		validUntil = min(validUntil, until)
		return true
	})
	m.maskRound = round
	m.maskCount = count
	m.maskValidUntil = validUntil - 1
}

// PostIterate rolls frozen scalars back to their last synchronized values,
// emulating per-scalar freezing exactly as the paper does atop PyTorch
// (Alg. 1 line 2).
func (m *Manager) PostIterate(round int, x []float64) {
	m.checkDim(x)
	m.refreshMask(round)
	if m.maskCount == 0 {
		return
	}
	m.mask.ApplyMasked(x, m.ref)
}

// PrepareUpload packages the contribution for server aggregation. Frozen
// entries carry their (cluster-wide identical) frozen values and cost no
// bandwidth; only the unfrozen scalars are counted as pushed bytes.
//
// The returned slice is a manager-owned scratch buffer, overwritten by the
// next PrepareUpload or ExpandDownload call; it never aliases x.
func (m *Manager) PrepareUpload(round int, x []float64) ([]float64, float64, int64) {
	m.checkDim(x)
	m.refreshMask(round)
	contrib := m.scratchFor()
	m.mask.Blend(contrib, m.ref, x)
	unfrozen := m.cfg.Dim - m.maskCount
	return contrib, 1, int64(unfrozen) * int64(m.cfg.BytesPerValue)
}

// ApplyDownload merges the aggregated unfrozen scalars into the local
// model (pull phase, also mask-compressed) and, on check boundaries, runs
// the stability check that adjusts freezing state for the next rounds.
func (m *Manager) ApplyDownload(round int, x, global []float64) int64 {
	m.checkDim(x)
	m.checkDim(global)
	m.refreshMask(round)
	m.lastRound = round
	// Pull into ref, then hand the model ref whole: frozen scalars sit at
	// their synchronized values, the rest take the aggregate. The
	// follower's model is ref itself.
	m.mask.ApplyUnmasked(m.ref, global)
	if &x[0] != &m.ref[0] {
		copy(x, m.ref)
	}
	unfrozen := m.cfg.Dim - m.maskCount
	if m.cfg.Observer != nil {
		// Report the mask that governed this round now: the stability
		// check below replaces it with the next round's.
		m.cfg.Observer.RoundApplied(round, m.maskCount, m.cfg.Dim)
	}
	if !m.initialized {
		// Seed the check baseline from *synchronized* state: every
		// client sees the identical post-aggregation vector here, which
		// is what keeps M_is_frozen identical across the cluster. (A
		// baseline taken from a client's own local updates would differ
		// per client and let masks diverge.)
		copy(m.lastCheck, x)
		m.initialized = true
		m.initRound = round
	}
	if round == m.initRound {
		// The initializing download seeds x, ref, and the check
		// baseline everywhere: every word is touched.
		g := uint32(round + 1)
		for w := range m.wordGen {
			m.wordGen[w] = g
		}
	} else {
		m.touchUnfrozenWords(round)
	}
	// Run the stability check on check boundaries — but never on the
	// round that seeded the baseline, whose accumulated delta would be
	// degenerate and misread as stability.
	if round > m.initRound && (round+1)%m.cfg.CheckEveryRounds == 0 {
		m.stabilityCheck(round, x)
	}
	return int64(unfrozen) * int64(m.cfg.BytesPerValue)
}

// stabilityCheck implements Alg. 1's StabilityCheck with the Fig. 8
// semantics: only scalars that trained since the last check are
// re-assessed; stable ones are (re-)frozen with policy-controlled periods,
// and the random-freezing extensions add their masks on top. It is one
// sweep over the round's mask words, in ascending scalar order, that also
// refreshes the check baseline, counts the stability-frozen scalars and
// builds the next round's mask, so the next PostIterate rebuilds nothing.
// Past the re-assessment of its clear bits, a word costs a few
// branch-free passes over its 64 scalars, each yielding a bit per scalar.
func (m *Manager) stabilityCheck(round int, x []float64) {
	m.checkCount++
	next := int64(round + 1)
	draws, prob, span := m.randomFreezing(round)
	growing := m.cfg.Random.Mode == RandomGrowing
	var hitBelow uint64
	if draws && !growing {
		hitBelow = stats.Threshold(prob)
	}
	oneRound := deadline(int(next), 1)
	step := float64(m.cfg.CheckEveryRounds)
	gen := uint32(next)
	rng, lastCheck, ref := m.rng, m.lastCheck, m.ref
	period, unfreezeAt, randomUntil := m.period, m.unfreezeAt, m.randomUntil
	words := m.mask.Words()
	frozen, count := 0, 0
	soonest := uint64(math.MaxUint64)
	for w, frozenNow := range words {
		base := w * 64
		end := base + wordWidth(m.cfg.Dim, w)
		full := fullWordBits(m.cfg.Dim, w)
		// The mask governing round is exactly the frozen-now set: its
		// clear bits are the scalars that trained since the last check.
		for clear := ^frozenNow & full; clear != 0; clear &= clear - 1 {
			j := base + bits.TrailingZeros64(clear)
			p := m.tracker.Fold(j, x[j]-lastCheck[j])
			stable := p < m.threshold
			period[j] = m.cfg.Policy.NextPeriod(period[j], stable, step)
			if stable && period[j] >= 1 {
				unfreezeAt[j] = deadline(int(next), period[j])
				ref[j] = x[j]
			} else {
				unfreezeAt[j] = 0
			}
		}
		uw, rw := unfreezeAt[base:end], randomUntil[base:end]
		// Frozen by stability: no draw (§5 freezes unstable scalars), and
		// counted for threshold decay.
		stableBits := frozenPast(next, uw)
		frozen += bits.OnesCount64(stableBits)
		var hits uint64
		if draws {
			cand := full &^ stableBits
			if growing {
				// APF++ draws each hit's length right after its hit.
				for ; cand != 0; cand &= cand - 1 {
					if rng.Float64() < prob {
						length := 1 + int(rng.Float64()*span)
						rw[bits.TrailingZeros64(cand)] = deadline(int(next), float64(length))
						hits |= cand & -cand
					}
				}
			} else {
				hits = rng.Hits(cand, hitBelow)
				for set := hits; set != 0; set &= set - 1 {
					rw[bits.TrailingZeros64(set)] = oneRound
				}
			}
		}
		// Refresh the check baseline, tracking whether it changes the word
		// bit-wise: frozen rollback can move lastCheck inside words that
		// are fully frozen this round (a randomly-frozen scalar whose x
		// rolled back to ref since the last check), which ApplyDownload's
		// unfrozen touch cannot see. Random freezing can also hit
		// otherwise fully-frozen words.
		if refreshed(lastCheck[base:end], x[base:end]) || hits != 0 {
			m.wordGen[w] = gen
		}
		nextBits, least := nextMaskWord(next, uw, rw)
		words[w] = nextBits
		count += bits.OnesCount64(nextBits)
		soonest = min(soonest, least)
	}
	m.tracker.CountObservation()
	// The mask holds through round next + soonest, the last before its
	// earliest deadline; with nothing frozen, for ever.
	m.maskRound, m.maskCount, m.maskValidUntil = int(next), count, math.MaxInt-1
	if count > 0 {
		m.maskValidUntil = int(next + int64(soonest))
	}

	// Threshold decay (§6.1): halve once most parameters are frozen by
	// *stability*. Randomly frozen scalars (APF#/APF++) say nothing about
	// stability — under APF++ the freezing probability approaches 1, so
	// counting them would fire the decay on nearly every check and drive
	// the threshold to zero regardless of actual parameter maturity.
	if m.cfg.ThresholdDecayFrac > 0 &&
		float64(frozen) >= m.cfg.ThresholdDecayFrac*float64(m.cfg.Dim) {
		m.threshold /= 2
		if m.cfg.Observer != nil {
			m.cfg.Observer.ThresholdDecayed(m.threshold)
		}
	}
	if m.cfg.Observer != nil {
		m.cfg.Observer.StabilityChecked(m.checkCount, round, frozen)
	}
}

// The word passes below are kept out of line on purpose: inlined into
// stabilityCheck's sweep, which holds more live values than there are
// registers, their accumulators spill to the stack and every scalar pays a
// store-to-load round trip; out of line, each runs in registers.

// frozenPast returns the mask word whose bit i is set when next <
// until[i]. next − until[i] is negative exactly then, for every int32
// deadline.
//
//go:noinline
func frozenPast(next int64, until []int32) uint64 {
	var word uint64
	for i, u := range until {
		word |= uint64(next-int64(u)) >> 63 << (i & 63)
	}
	return word
}

// refreshed copies src over dst and reports whether that changed any bit.
//
//go:noinline
func refreshed(dst, src []float64) bool {
	dst = dst[:len(src)]
	var diff uint64
	for i, v := range src {
		diff |= math.Float64bits(dst[i]) ^ math.Float64bits(v)
	}
	copy(dst, src)
	return diff != 0
}

// nextMaskWord returns the mask word for round next of scalars that stay
// frozen until max(u[i], r[i]): bit i is set when that lies past next.
// least is the minimum of until − next − 1 over the set bits, which is
// below 2⁶³ exactly for them; with no bit set it is 2⁶³ or more.
//
//go:noinline
func nextMaskWord(next int64, u, r []int32) (word, least uint64) {
	r = r[:len(u)]
	least = math.MaxUint64
	for i, v := range u {
		d := uint64(int64(max(v, r[i])) - next - 1)
		word |= ^d >> 63 << (i & 63)
		least = min(least, d)
	}
	return word, least
}

// randomFreezing sets up the check's APF# / APF++ draws (§5): whether
// there are any, the freezing probability, and APF++'s length span. The
// draws come from the stream of (Seed, checkCount) only, so every client
// freezes the same scalars.
func (m *Manager) randomFreezing(round int) (draws bool, prob, span float64) {
	rf := m.cfg.Random
	switch rf.Mode {
	case RandomOff:
		return false, 0, 0
	case RandomFixed:
		prob = rf.Prob
	case RandomGrowing:
		prob = rf.ProbGrowth * float64(round+1)
		maxLen := 1 + rf.LenGrowth*float64(round+1)
		span = math.Max(0, maxLen-1)
	default:
		panic(fmt.Sprintf("core: unknown random freeze mode %d", rf.Mode))
	}
	if prob <= 0 {
		return false, 0, 0
	}
	if prob > 1 {
		prob = 1
	}
	if m.rng == nil {
		m.rng = new(stats.SplitStream)
	}
	m.rng.Reset(m.cfg.Seed, int64(m.checkCount))
	return true, prob, span
}

// CompactUpload extracts the unfrozen scalars of a dense contribution, in
// index order — the compact tensor of Alg. 1 line 4 (masked_select) that
// actually crosses the wire.
//
// The returned slice is a manager-owned scratch buffer sized to the
// compact length, overwritten by the next CompactUpload call.
func (m *Manager) CompactUpload(round int, contrib []float64) []float64 {
	m.checkDim(contrib)
	m.refreshMask(round)
	m.compact = checkpoint.Refit(m.compact, m.cfg.Dim-m.maskCount, m.cfg.Dim)
	m.compact = m.mask.GatherUnmasked(m.compact, contrib)
	return m.compact
}

// ExpandDownload reconstructs the dense global vector from an aggregated
// compact payload (Alg. 1 line 6, masked_fill), filling frozen entries from
// the local reference values — which are identical on every client.
//
// The returned slice is the manager-owned scratch buffer PrepareUpload
// returns too, overwritten by the next PrepareUpload or ExpandDownload
// call; compact must not alias it.
func (m *Manager) ExpandDownload(round int, compact []float64) []float64 {
	m.refreshMask(round)
	unfrozen := m.cfg.Dim - m.maskCount
	if len(compact) != unfrozen {
		panic(fmt.Sprintf("core: compact payload length %d, want %d unfrozen scalars", len(compact), unfrozen))
	}
	dense := m.scratchFor()
	m.mask.ScatterUnmasked(dense, compact, m.ref)
	return dense
}

// CompactLen returns the compact payload length for the given round (the
// unfrozen-scalar count) without building the payload — transports use it
// to validate an incoming compact aggregate before expanding it.
func (m *Manager) CompactLen(round int) int {
	m.refreshMask(round)
	return m.cfg.Dim - m.maskCount
}

// FrozenRatio returns the fraction of scalars frozen in the most recently
// observed round.
func (m *Manager) FrozenRatio() float64 { return m.currentMask().Ratio() }

// MaskWords exposes the freezing bitmap for cross-client consistency
// checks.
func (m *Manager) MaskWords() []uint64 { return m.currentMask().Words() }

// currentMask returns the mask in force. Only a restore leaves the manager
// without one; it then rebuilds the mask governing the round after the
// synchronization ApplyDownload last observed (round 0 before any) — the
// mask the §9 server placement ships. That round is never guessed as
// checkCount·CheckEveryRounds, which undercounts whenever the first check
// came late (a client joining late under partial participation).
func (m *Manager) currentMask() *bitset.BitSet {
	if m.maskRound < 0 {
		m.refreshMask(max(m.lastRound+1, 0))
	}
	return m.mask
}

// Threshold returns the current (possibly decayed) stability threshold.
func (m *Manager) Threshold() float64 { return m.threshold }

// Checks returns how many stability checks have run.
func (m *Manager) Checks() int { return m.checkCount }

// MaskGeneration returns the freezing mask's generation: the number of
// stability checks that have shaped it. Two deterministic replicas hold
// the same mask exactly when their generations and mask words agree, so
// transports ship the generation as a cheap divergence tripwire alongside
// the mask hash (fl.MaskGenerationReporter).
func (m *Manager) MaskGeneration() int { return m.checkCount }

// checkDim panics when a vector of the wrong length reaches the manager.
func (m *Manager) checkDim(x []float64) {
	if len(x) != m.cfg.Dim {
		panic(fmt.Sprintf("core: vector length %d does not match model dimension %d", len(x), m.cfg.Dim))
	}
}
