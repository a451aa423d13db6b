// Package adversary wraps fl.SyncManagers with model-poisoning behavior
// for the scenario harness: a compromised client trains honestly but
// corrupts the contribution it uploads. Every attack is a pure function
// of (seed, client, round), so adversarial trials replay bit-identically
// across runs and across the TCP transport and the in-process simulator.
package adversary

import (
	"fmt"
	"math"

	"apf/internal/fl"
	"apf/internal/stats"
)

// Strategy names one poisoning behavior.
type Strategy string

const (
	// None leaves the client honest.
	None Strategy = "none"
	// Scale multiplies the contribution by 8 (a blatant magnitude attack —
	// the norm gate's home turf).
	Scale Strategy = "scale"
	// SignFlip negates the contribution. Its L2 norm is unchanged, so a
	// pure norm gate cannot see it; the harness keeps it in the matrix to
	// measure that blind spot honestly.
	SignFlip Strategy = "sign-flip"
	// Noise adds Gaussian noise with per-scalar sigma 4·‖contrib‖/√dim,
	// inflating the norm by about √17.
	Noise Strategy = "noise"
)

// Spec declares which clients attack, how, and when.
type Spec struct {
	// Strategy selects the poisoning behavior; None (or "") disables.
	Strategy Strategy `json:"strategy"`
	// Count is how many clients are adversarial. The harness assigns the
	// highest client indices.
	Count int `json:"count,omitempty"`
	// Onset is the first attacked round; every later round is attacked
	// too. Leaving the earliest rounds honest lets the validator's norm
	// history arm first, which is also what a stealthy adversary would do.
	Onset int `json:"onset,omitempty"`
	// Evasion, when > 0, rescales every poisoned contribution's L2 norm to
	// Evasion × the honest norm. An evasion factor under the validator's
	// MaxNormMult slips beneath the gate while still steering the average.
	Evasion float64 `json:"evasion,omitempty"`
}

// Active reports whether the spec poisons anyone at all.
func (s Spec) Active() bool {
	return s.Strategy != None && s.Strategy != "" && s.Count > 0
}

// factor returns the attack magnitude: 4 for Noise, 8 for Scale (unused
// by SignFlip).
func (s Spec) factor() float64 {
	if s.Strategy == Noise {
		return 4
	}
	return 8
}

// Validate rejects specs the harness cannot honor.
func (s Spec) Validate() error {
	switch s.Strategy {
	case None, "", Scale, SignFlip, Noise:
	default:
		return fmt.Errorf("adversary: unknown strategy %q", s.Strategy)
	}
	if s.Count < 0 || s.Onset < 0 || s.Evasion < 0 {
		return fmt.Errorf("adversary: invalid spec %+v", s)
	}
	return nil
}

// Attacks reports whether an adversary under the spec attacks in round:
// the spec is active and the round is past onset.
func (s Spec) Attacks(round int) bool {
	return s.Active() && round >= s.Onset
}

// Wrap returns inner with the spec's poisoning applied to every attacked
// round's upload. client is the wrapped client's index (seeds the noise
// draws). Its Unwrap exposes the inner manager's compact-codec, mask and
// catch-up interfaces to fl.As, so a poisoned APF client still speaks the
// sparse codecs; poisoning happens on the dense contribution before
// compaction, exactly where a compromised client would inject it.
func Wrap(inner fl.SyncManager, spec Spec, seed int64, client int) fl.SyncManager {
	if !spec.Active() {
		return inner
	}
	return &manager{inner: inner, spec: spec, seed: seed, client: client}
}

// manager is the poisoning SyncManager wrapper.
type manager struct {
	inner  fl.SyncManager
	spec   Spec
	seed   int64
	client int
	buf    []float64
}

var _ fl.SyncManager = (*manager)(nil)

// PostIterate trains honestly — the attack only touches the upload.
func (m *manager) PostIterate(round int, x []float64) { m.inner.PostIterate(round, x) }

// PrepareUpload poisons a copy of the inner contribution on attacked
// rounds. The copy lives in the wrapper's own scratch: the inner
// manager's contribution buffer is reused across rounds and must not be
// mutated behind its back.
func (m *manager) PrepareUpload(round int, x []float64) ([]float64, float64, int64) {
	contrib, w, up := m.inner.PrepareUpload(round, x)
	if !m.spec.Attacks(round) {
		return contrib, w, up
	}
	m.buf = append(m.buf[:0], contrib...)
	m.poison(round, m.buf)
	return m.buf, w, up
}

// ApplyDownload delegates; the adversary accepts globals like any client.
func (m *manager) ApplyDownload(round int, x, global []float64) int64 {
	return m.inner.ApplyDownload(round, x, global)
}

// poison corrupts one contribution in place per the spec.
func (m *manager) poison(round int, v []float64) {
	honest := norm2(v)
	switch m.spec.Strategy {
	case Scale:
		f := m.spec.factor()
		for i := range v {
			v[i] *= f
		}
	case SignFlip:
		for i := range v {
			v[i] = -v[i]
		}
	case Noise:
		sigma := m.spec.factor() * honest / math.Sqrt(float64(len(v)))
		rng := stats.CellRNG(m.seed^noiseStream, m.client, round)
		for i := range v {
			v[i] += sigma * rng.NormFloat64()
		}
	}
	if m.spec.Evasion > 0 && honest > 0 {
		if cur := norm2(v); cur > 0 {
			f := m.spec.Evasion * honest / cur
			for i := range v {
				v[i] *= f
			}
		}
	}
}

// noiseStream keys the noise draws apart from other streams sharing the
// trial seed.
const noiseStream = 0x6e6f697365 // "noise"

// norm2 returns the L2 norm of v.
func norm2(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
}

// Unwrap returns the wrapped manager, whose optional capabilities fl.As
// finds through the wrapper.
func (m *manager) Unwrap() fl.SyncManager { return m.inner }
