package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"apf/internal/stats"
)

// refManager runs a Manager's rounds through the multi-pass stability
// check the one-sweep check replaced, kept here verbatim as its reference:
// separate passes for the EMA fold, the re-assessment, the APF#/APF++
// draws (from a rand.Rand per check), the baseline refresh and the decay
// count, then a lazy Fill rebuild of the mask on the next access; and the
// three mask passes of the old download. Only the two bitset/tracker
// helpers the sweep deleted are spelled out per scalar (forEachClear, and
// ObserveMasked over a Δ vector for the fold). Deadlines are written in
// the manager's int32 form, saturated at math.MaxInt32.
type refManager struct{ *Manager }

// forEachClear calls fn for every scalar unfrozen under m's current mask.
func (m refManager) forEachClear(fn func(j int)) {
	for j := 0; j < m.cfg.Dim; j++ {
		if !m.mask.Get(j) {
			fn(j)
		}
	}
}

func (m refManager) refreshMask(round int) {
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
		u, r := int(m.unfreezeAt[j]), int(m.randomUntil[j])
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

func (m refManager) PostIterate(round int, x []float64) {
	m.checkDim(x)
	m.refreshMask(round)
	if m.maskCount == 0 {
		return
	}
	m.mask.ApplyMasked(x, m.ref)
}

func (m refManager) PrepareUpload(round int, x []float64) ([]float64, float64, int64) {
	m.checkDim(x)
	m.refreshMask(round)
	contrib := make([]float64, m.cfg.Dim)
	m.mask.ApplyUnmasked(contrib, x)
	if m.maskCount > 0 {
		m.mask.ApplyMasked(contrib, m.ref)
	}
	unfrozen := m.cfg.Dim - m.maskCount
	return contrib, 1, int64(unfrozen) * int64(m.cfg.BytesPerValue)
}

func (m refManager) ApplyDownload(round int, x, global []float64) int64 {
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
		m.cfg.Observer.RoundApplied(round, m.maskCount, m.cfg.Dim)
	}
	if !m.initialized {
		copy(m.lastCheck, x)
		m.initialized = true
		m.initRound = round
	}
	if round == m.initRound {
		g := uint32(round + 1)
		for w := range m.wordGen {
			m.wordGen[w] = g
		}
	} else {
		m.touchUnfrozenWords(round)
	}
	if round > m.initRound && (round+1)%m.cfg.CheckEveryRounds == 0 {
		m.stabilityCheck(round, x)
	}
	return int64(unfrozen) * int64(m.cfg.BytesPerValue)
}

func (m refManager) stabilityCheck(round int, x []float64) {
	m.checkCount++
	delta := make([]float64, m.cfg.Dim)
	for j := range delta {
		delta[j] = x[j] - m.lastCheck[j]
	}
	m.tracker.ObserveMasked(delta, m.mask.Get)

	step := float64(m.cfg.CheckEveryRounds)
	m.forEachClear(func(j int) {
		p := m.tracker.Perturbation(j)
		stable := p < m.threshold
		m.period[j] = m.cfg.Policy.NextPeriod(m.period[j], stable, step)
		if stable && m.period[j] >= 1 {
			m.unfreezeAt[j] = int32(min(round+1+int(m.period[j]), math.MaxInt32))
			m.ref[j] = x[j]
		} else {
			m.unfreezeAt[j] = 0
		}
	})

	m.applyRandomFreezing(round)
	gen := uint32(round + 1)
	for j := range x {
		if math.Float64bits(m.lastCheck[j]) != math.Float64bits(x[j]) {
			m.lastCheck[j] = x[j]
			m.wordGen[j>>6] = gen
		}
	}

	if m.cfg.ThresholdDecayFrac > 0 || m.cfg.Observer != nil {
		frozen := 0
		for j := 0; j < m.cfg.Dim; j++ {
			if round+1 < int(m.unfreezeAt[j]) {
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
	m.maskRound = -1
}

func (m refManager) applyRandomFreezing(round int) {
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
		if round+1 < int(m.unfreezeAt[j]) {
			continue
		}
		if rng.Float64() >= prob {
			continue
		}
		length := 1
		if rf.Mode == RandomGrowing {
			maxLen := 1 + rf.LenGrowth*float64(round+1)
			length = 1 + int(rng.Float64()*math.Max(0, maxLen-1))
		}
		m.randomUntil[j] = int32(min(round+1+length, math.MaxInt32))
		m.wordGen[j>>6] = uint32(round + 1)
	}
}

func (m refManager) CompactLen(round int) int {
	m.refreshMask(round)
	return m.cfg.Dim - m.maskCount
}

func (m refManager) FrozenRatio() float64 {
	if m.maskRound < 0 {
		m.refreshMask(max(m.lastRound+1, 0))
	}
	return m.mask.Ratio()
}

func (m refManager) MaskWords() []uint64 {
	if m.maskRound < 0 {
		m.refreshMask(max(m.lastRound+1, 0))
	}
	return m.mask.Words()
}

// eventLog records a manager's observer events.
type eventLog struct{ events []string }

func (l *eventLog) RoundApplied(round, frozen, dim int) {
	l.events = append(l.events, fmt.Sprint("applied", round, frozen, dim))
}

func (l *eventLog) StabilityChecked(check, round, frozen int) {
	l.events = append(l.events, fmt.Sprint("checked", check, round, frozen))
}

func (l *eventLog) ThresholdDecayed(threshold float64) {
	l.events = append(l.events, fmt.Sprint("decayed", math.Float64bits(threshold)))
}

// referenceConfig builds one point of the differential grid: policy,
// random mode and decay index into the fixed lists below.
func referenceConfig(dim, policy, random, every int, decay bool, seed int64) Config {
	policies := []FreezePolicy{AIMD{}, PureAdditive{}, PureMultiplicative{}, Fixed{Checks: 2}, Permanent{}}
	randoms := []RandomFreeze{
		{Mode: RandomOff},
		{Mode: RandomFixed, Prob: 0.5},
		{Mode: RandomGrowing, ProbGrowth: 0.03, LenGrowth: 0.4},
	}
	cfg := Config{
		Dim:                dim,
		CheckEveryRounds:   every,
		Threshold:          0.3,
		ThresholdDecayFrac: 2, // never reached: decay off
		EMAAlpha:           0.8,
		Policy:             policies[policy%len(policies)],
		Random:             randoms[random%len(randoms)],
		Seed:               seed,
	}
	if decay {
		cfg.ThresholdDecayFrac = 0.3
	}
	return cfg
}

// localStep moves x the way training would, one scalar class per residue
// of j: never (stable, long frozen runs), oscillating, drifting, noisy,
// subnormal steps, signed zeros, rare jumps and tiny noise.
func localStep(rng *rand.Rand, x []float64, round int) {
	for j := range x {
		switch (j*5 + round/16) % 8 {
		case 0:
		case 1:
			x[j] += float64(1-2*(round%2)) * 0.25
		case 2:
			x[j] += 0.01
		case 3:
			x[j] += rng.NormFloat64()
		case 4:
			x[j] += math.SmallestNonzeroFloat64 * float64(rng.Intn(7)-3)
		case 5:
			x[j] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		case 6:
			if rng.Intn(10) == 0 {
				x[j] += rng.NormFloat64() * 100
			}
		case 7:
			x[j] += rng.NormFloat64() * 1e-6
		}
	}
}

// checkAgainstReference drives a Manager and the reference over the same
// seeded update stream — skipped rounds, compacted downloads and a
// mid-stream RestoreSnapshot included — and fails on the first round where
// any observable differs. It returns how many stability checks ran.
func checkAgainstReference(t *testing.T, cfg Config, seed int64, steps int) int {
	t.Helper()
	var fusedLog, refLog eventLog
	fcfg, rcfg := cfg, cfg
	fcfg.Observer, rcfg.Observer = &fusedLog, &refLog
	fused, ref := NewManager(fcfg), refManager{NewManager(rcfg)}
	xf, xr := make([]float64, cfg.Dim), make([]float64, cfg.Dim)
	rng := rand.New(rand.NewSource(seed))
	for j := range xf {
		xf[j] = rng.NormFloat64()
	}
	copy(xr, xf)
	noise := make([]float64, cfg.Dim)
	round := rng.Intn(3)
	for step := 0; step < steps; step++ {
		fail := func(what string) {
			t.Helper()
			t.Fatalf("seed %d step %d round %d: %s differs from the reference (config %+v)", seed, step, round, what, cfg)
		}
		if step == steps/2 {
			// Catch-up adopts a full state mid-stream: restore both from
			// their own captures (mask caches start cold).
			rf, err := Restore(fcfg, fused.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			rr, err := Restore(rcfg, ref.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			fused, ref = rf, refManager{rr}
		}
		localStep(rng, xf, round)
		copy(xr, xf)
		fused.PostIterate(round, xf)
		ref.PostIterate(round, xr)
		if !sameBits(xf, xr) {
			fail("the rolled-back model")
		}
		cf, _, bf := fused.PrepareUpload(round, xf)
		cr, _, br := ref.PrepareUpload(round, xr)
		if !sameBits(cf, cr) || bf != br {
			fail("the upload")
		}
		for j := range noise {
			noise[j] = rng.NormFloat64() * 1e-3
			if j%8 == 0 || j%8 == 5 {
				noise[j] = 0
			}
		}
		global := make([]float64, cfg.Dim)
		if step%2 == 0 {
			compact := append([]float64(nil), fused.CompactUpload(round, cf)...)
			for i := range compact {
				compact[i] += noise[i]
			}
			copy(global, fused.ExpandDownload(round, compact))
		} else {
			for j := range global {
				global[j] = cf[j] + noise[j]
			}
		}
		if fused.ApplyDownload(round, xf, global) != ref.ApplyDownload(round, xr, global) {
			fail("the download bytes")
		}
		if !sameBits(xf, xr) {
			fail("the downloaded model")
		}
		next := round + 1
		if rng.Intn(5) == 0 {
			next += 1 + rng.Intn(4) // this client sits out some rounds
		}
		switch {
		case !slices.Equal(fused.MaskWords(), ref.MaskWords()):
			fail("the mask")
		case fused.FrozenRatio() != ref.FrozenRatio():
			fail("the frozen ratio")
		case fused.CompactLen(next) != ref.CompactLen(next):
			fail("the compact length")
		case !bytes.Equal(EncodeState(fused.Snapshot()), EncodeState(ref.Snapshot())):
			fail("the encoded state")
		case !slices.Equal(fused.WordGens(), ref.WordGens()):
			fail("the word generations")
		case math.Float64bits(fused.Threshold()) != math.Float64bits(ref.Threshold()):
			fail("the threshold")
		case !slices.Equal(fusedLog.events, refLog.events):
			fail("the observer events")
		}
		round = next
	}
	return fused.Checks()
}

// TestStabilityCheckMatchesReference compares the one-sweep stability
// check with the multi-pass reference over the five policies, the three
// random-freezing modes, check intervals 1, 2 and 5, and decay on and off.
func TestStabilityCheckMatchesReference(t *testing.T) {
	for policy := 0; policy < 5; policy++ {
		for random := 0; random < 3; random++ {
			for _, every := range []int{1, 2, 5} {
				for _, decay := range []bool{false, true} {
					seed := int64(policy*100 + random*10 + every)
					dim := 130 + 64*(policy%2) + random
					cfg := referenceConfig(dim, policy, random, every, decay, seed)
					if checks := checkAgainstReference(t, cfg, seed, 48); checks < 4 {
						t.Fatalf("seed %d: only %d stability checks ran", seed, checks)
					}
				}
			}
		}
	}
}

// FuzzStabilityCheckMatchesReference widens the differential test to
// fuzzed configurations, dimensions and update streams.
func FuzzStabilityCheckMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), uint8(1), true, uint16(200), uint8(40))
	f.Add(int64(7), uint8(2), uint8(2), uint8(2), false, uint16(64), uint8(60))
	f.Add(int64(-3), uint8(4), uint8(1), uint8(5), true, uint16(1), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, policy, random, every uint8, decay bool, dim uint16, steps uint8) {
		cfg := referenceConfig(int(dim%700)+1, int(policy), int(random), int(every%6)+1, decay, seed)
		checkAgainstReference(t, cfg, seed, int(steps%80)+12)
	})
}
