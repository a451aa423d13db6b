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
// Transport catch-up serves its captures (exported word by word from the
// captured State, see recon.go), and the §9 server-side mask placement
// (MaskServer) ships its mask.
package core

import (
	"fmt"
	"math"

	"apf/internal/bitset"
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

	period      []float64 // AIMD state, in rounds
	unfreezeAt  []int     // round at which stability freezing expires
	randomUntil []int     // round at which random freezing expires

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

	threshold   float64
	checkCount  int
	initialized bool
	initRound   int
	// lastRound is the most recent round observed by ApplyDownload; lazy
	// mask refreshes (FrozenRatio/MaskWords after a check reset) derive
	// their round from it rather than guessing from the check count.
	lastRound int

	// Hot-path scratch, lazily sized to Dim and reused every round so
	// steady-state rounds allocate nothing. Each buffer backs the return
	// value of exactly one method; see the method contracts.
	contribBuf []float64 // PrepareUpload
	compactBuf []float64 // CompactUpload
	denseBuf   []float64 // ExpandDownload
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
		unfreezeAt:     make([]int, cfg.Dim),
		randomUntil:    make([]int, cfg.Dim),
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

// frozenAt reports whether scalar j is frozen during the given round.
func (m *Manager) frozenAt(j, round int) bool {
	return round < m.unfreezeAt[j] || round < m.randomUntil[j]
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
		u, r := m.unfreezeAt[j], m.randomUntil[j]
		if round < u || round < r {
			count++
			if u < r {
				u = r
			}
			if u < validUntil {
				validUntil = u // scalar j unfreezes at round u
			}
			return true
		}
		return false
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
// next PrepareUpload call; it never aliases x.
func (m *Manager) PrepareUpload(round int, x []float64) ([]float64, float64, int64) {
	m.checkDim(x)
	m.refreshMask(round)
	if m.contribBuf == nil {
		m.contribBuf = make([]float64, m.cfg.Dim)
	}
	m.mask.ApplyUnmasked(m.contribBuf, x)
	if m.maskCount > 0 {
		m.mask.ApplyMasked(m.contribBuf, m.ref)
	}
	unfrozen := m.cfg.Dim - m.maskCount
	return m.contribBuf, 1, int64(unfrozen) * int64(m.cfg.BytesPerValue)
}

// ApplyDownload merges the aggregated unfrozen scalars into the local
// model (pull phase, also mask-compressed) and, on check boundaries, runs
// the stability check that adjusts freezing state for the next rounds.
func (m *Manager) ApplyDownload(round int, x, global []float64) int64 {
	m.checkDim(x)
	m.checkDim(global)
	m.refreshMask(round)
	m.lastRound = round
	m.mask.ApplyUnmasked(x, global)
	m.mask.ApplyUnmasked(m.ref, global)
	if m.maskCount > 0 {
		m.mask.ApplyMasked(x, m.ref)
	}
	unfrozen := m.cfg.Dim - m.maskCount
	if m.cfg.Observer != nil {
		// Report the mask that governed this round now: the stability
		// check below may invalidate it (maskRound = -1) for lazy rebuild.
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
// and the random-freezing extensions add their masks on top.
func (m *Manager) stabilityCheck(round int, x []float64) {
	m.checkCount++
	// The caller (ApplyDownload) refreshed the mask for this round, so the
	// bitmap is exactly the frozen-now set; every loop below iterates it
	// word-level instead of re-deriving per-scalar freezing.
	m.tracker.ObserveUnfrozen(x, m.lastCheck, m.mask)

	step := float64(m.cfg.CheckEveryRounds)
	m.mask.IterateClear(func(j int) {
		p := m.tracker.Perturbation(j)
		stable := p < m.threshold
		m.period[j] = m.cfg.Policy.NextPeriod(m.period[j], stable, step)
		if stable && m.period[j] >= 1 {
			m.unfreezeAt[j] = round + 1 + int(m.period[j])
			m.ref[j] = x[j]
		} else {
			m.unfreezeAt[j] = 0
		}
	})

	m.applyRandomFreezing(round)
	// Refresh the check baseline, tracking which words it actually
	// changes bit-wise: frozen rollback can move lastCheck inside words
	// that are fully frozen this round (a randomly-frozen scalar whose
	// x rolled back to ref since the last check), which the unfrozen
	// touch above cannot see.
	gen := uint32(round + 1)
	for j := range x {
		if math.Float64bits(m.lastCheck[j]) != math.Float64bits(x[j]) {
			m.lastCheck[j] = x[j]
			m.wordGen[j>>6] = gen
		}
	}

	// Threshold decay (§6.1): halve once most parameters are frozen by
	// *stability*. Randomly frozen scalars (APF#/APF++) say nothing about
	// stability — under APF++ the freezing probability approaches 1, so
	// counting them would fire the decay on nearly every check and drive
	// the threshold to zero regardless of actual parameter maturity.
	// The observer wants the same stability-frozen count, so one pass
	// serves both.
	if m.cfg.ThresholdDecayFrac > 0 || m.cfg.Observer != nil {
		frozen := 0
		for j := 0; j < m.cfg.Dim; j++ {
			if round+1 < m.unfreezeAt[j] {
				frozen++
			}
		}
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
	m.maskRound = -1 // mask changed; recompute lazily
}

// applyRandomFreezing implements APF# / APF++ (§5). Decisions derive from
// (Seed, checkCount) only, so every client freezes the same scalars.
func (m *Manager) applyRandomFreezing(round int) {
	rf := m.cfg.Random
	if rf.Mode == RandomOff {
		return
	}
	var prob float64
	switch rf.Mode {
	case RandomFixed:
		prob = rf.Prob
	case RandomGrowing:
		prob = rf.ProbGrowth * float64(round+1)
	default:
		panic(fmt.Sprintf("core: unknown random freeze mode %d", rf.Mode))
	}
	if prob <= 0 {
		return
	}
	if prob > 1 {
		prob = 1
	}
	rng := stats.SplitRNG(m.cfg.Seed, int64(m.checkCount))
	for j := 0; j < m.cfg.Dim; j++ {
		if round+1 < m.unfreezeAt[j] {
			continue // already frozen by stability or a previous draw
		}
		if rng.Float64() >= prob {
			continue
		}
		length := 1
		if rf.Mode == RandomGrowing {
			maxLen := 1 + rf.LenGrowth*float64(round+1)
			length = 1 + int(rng.Float64()*math.Max(0, maxLen-1))
		}
		m.randomUntil[j] = round + 1 + length
		// Random freezing can hit otherwise fully-frozen words.
		m.wordGen[j>>6] = uint32(round + 1)
	}
}

// CompactUpload extracts the unfrozen scalars of a dense contribution, in
// index order — the compact tensor of Alg. 1 line 4 (masked_select) that
// actually crosses the wire.
//
// The returned slice is a manager-owned scratch buffer, overwritten by the
// next CompactUpload call.
func (m *Manager) CompactUpload(round int, contrib []float64) []float64 {
	m.checkDim(contrib)
	m.refreshMask(round)
	if cap(m.compactBuf) < m.cfg.Dim {
		m.compactBuf = make([]float64, 0, m.cfg.Dim)
	}
	m.compactBuf = m.mask.GatherUnmasked(m.compactBuf[:0], contrib)
	return m.compactBuf
}

// ExpandDownload reconstructs the dense global vector from an aggregated
// compact payload (Alg. 1 line 6, masked_fill), filling frozen entries from
// the local reference values — which are identical on every client.
//
// The returned slice is a manager-owned scratch buffer, overwritten by the
// next ExpandDownload call.
func (m *Manager) ExpandDownload(round int, compact []float64) []float64 {
	m.refreshMask(round)
	unfrozen := m.cfg.Dim - m.maskCount
	if len(compact) != unfrozen {
		panic(fmt.Sprintf("core: compact payload length %d, want %d unfrozen scalars", len(compact), unfrozen))
	}
	if m.denseBuf == nil {
		m.denseBuf = make([]float64, m.cfg.Dim)
	}
	m.mask.ScatterUnmasked(m.denseBuf, compact, m.ref)
	return m.denseBuf
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
func (m *Manager) FrozenRatio() float64 {
	if m.maskRound < 0 {
		m.refreshMask(m.lastKnownRound())
	}
	return m.mask.Ratio()
}

// lastKnownRound picks a round for lazy mask refreshes triggered outside
// the engine's call sequence (FrozenRatio/MaskWords right after a check
// reset the mask). The mask then in force is the one governing the round
// after the synchronization ApplyDownload last actually observed — the
// same mask the §9 server placement ships to its clients. It is derived
// from that observed round, NOT guessed as checkCount·CheckEveryRounds:
// the guess undercounts whenever the first check was delayed past
// initRound (e.g. a client joining late under partial participation) and
// then reports freezing deadlines that have in fact already expired.
func (m *Manager) lastKnownRound() int {
	if m.maskRound >= 0 {
		return m.maskRound
	}
	if m.lastRound >= 0 {
		return m.lastRound + 1
	}
	return 0
}

// MaskWords exposes the freezing bitmap for cross-client consistency
// checks.
func (m *Manager) MaskWords() []uint64 {
	if m.maskRound < 0 {
		m.refreshMask(m.lastKnownRound())
	}
	return m.mask.Words()
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
