// Package scenario is the declarative experiment harness that sweeps the
// adversary × network × data-skew × codec space over the real transport
// stack. A Config names one cell of the matrix; the runner executes it as
// N seeded trials — each one a real TCP coordinator plus clients, with
// chaos-scripted network behavior and optionally poisoned uploads — and
// scores both APF (accuracy vs bytes) and the transport validator
// (TPR / FPR / time-to-quarantine). Results aggregate into
// ExperimentResults and serialize to BENCH_scenarios.json with CI
// regression gates.
//
// Every trial is a pure function of (Config.Seed, trial index): data,
// partitions, model init, sever schedules, and attack draws all derive
// from the trial seed, so two runs of the same cell are
// byte-identical in JSON output.
package scenario

import (
	"fmt"
	"time"

	"apf/internal/scenario/adversary"
	"apf/internal/stats"
	"apf/internal/wire"
)

// NetworkSpec declares one network model applied to a trial as a seeded
// list of chaos faults (buildFaults). It is also the network half of the
// reported cell identity.
type NetworkSpec struct {
	// Name labels the model in reports ("clean", "flaky").
	Name string `json:"name"`
	// DropRate is the per-(round, client) probability that the client's
	// connection is severed at that round's mark (dropped). Severed
	// clients resume their session and re-send, so participation is
	// preserved — the cost is reconnects and re-sent wire bytes.
	DropRate float64 `json:"dropRate,omitempty"`
	// Kill crashes the coordinator when KillRound is first marked on a
	// connection and restarts it from its checkpoint directory. Test-only:
	// kill cells are excluded from benchmark matrices because in-flight
	// byte counts at the kill point are scheduling-dependent.
	Kill      bool `json:"kill,omitempty"`
	KillRound int  `json:"killRound,omitempty"`
}

// CleanNetwork is the no-fault baseline.
func CleanNetwork() NetworkSpec { return NetworkSpec{Name: "clean"} }

// FlakyNetwork severs a quarter of (round, client) cells.
func FlakyNetwork() NetworkSpec { return NetworkSpec{Name: "flaky", DropRate: 0.25} }

// Config declares one cell of the scenario matrix.
type Config struct {
	// Name labels the cell in reports; derived from the axes when empty.
	Name string `json:"name"`

	// Cluster shape and training schedule (defaults: 3 clients, 8 rounds,
	// 2 local iters, batch 10).
	Clients    int `json:"clients"`
	Rounds     int `json:"rounds"`
	LocalIters int `json:"localIters"`
	BatchSize  int `json:"batchSize"`

	// Alpha is the Dirichlet concentration of the label skew; <= 0 means
	// IID shards.
	Alpha float64 `json:"alpha"`

	// Codec selects the cluster's wire codec (dense | sparse | sparse-q16).
	Codec wire.Codec `json:"-"`

	// Adversary poisons the highest Adversary.Count client indices.
	Adversary adversary.Spec `json:"adversary"`

	// Network is the chaos model of the trial.
	Network NetworkSpec `json:"network"`

	// Trials is how many seeded trials to run (default 2).
	Trials int `json:"trials"`
	// Seed is the base seed; trial t runs under TrialSeed(Seed, t).
	Seed int64 `json:"seed"`

	// EvalEvery evaluates the global model every K rounds (default 2).
	EvalEvery int `json:"evalEvery"`

	// RoundDeadline bounds each round's barrier (fault tolerance); the
	// default 800ms comfortably covers honest trials on loopback while
	// keeping rejected-update rounds short.
	RoundDeadline time.Duration `json:"-"`

	// Validator knobs (defaults: 3× median norm gate, 2 strikes).
	MaxNormMult float64 `json:"maxNormMult"`
	StrikeLimit int     `json:"strikeLimit"`

	// CosineFloor arms the validator's direction gate: updates whose
	// cosine against the decayed reference direction falls below the
	// floor are struck. 0 leaves the gate off (the pre-defense matrix).
	CosineFloor float64 `json:"cosineFloor,omitempty"`
	// RoundNormMult arms the post-round norm review: accepted updates
	// whose norm exceeds RoundNormMult × the round median are struck
	// after the round. 0 leaves the review off.
	RoundNormMult float64 `json:"roundNormMult,omitempty"`

	// TrimFraction selects the server reduction: 0 the weighted mean, a
	// per-side fraction in (0, 0.5) the coordinate-wise trimmed mean.
	TrimFraction float64 `json:"trimFraction,omitempty"`

	// MinTPR overrides the matrix-wide TPR floor for this cell: > 0 is
	// the floor, < 0 exempts the cell from strategy floors (used by the
	// norm-only defense tier, which documents its blind spots instead of
	// gating them), 0 defers to the Gates.TPRFloor map.
	MinTPR float64 `json:"minTPR,omitempty"`

	// CheckpointDir persists coordinator state; required when Network.Kill.
	CheckpointDir string `json:"-"`

	// Oracle additionally runs the in-process simulator and requires the
	// TCP trial's final model to match bit-exactly. Only honored where
	// applicable (no adversary, clean network, lossless codec).
	Oracle bool `json:"-"`

	// MinAcc, when > 0, is the cell's CI accuracy floor: the aggregated
	// mean final accuracy must not fall below it.
	MinAcc float64 `json:"minAcc,omitempty"`
}

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.Clients == 0 {
		c.Clients = 3
	}
	if c.Rounds == 0 {
		c.Rounds = 8
	}
	if c.LocalIters == 0 {
		c.LocalIters = 2
	}
	if c.BatchSize == 0 {
		c.BatchSize = 10
	}
	if c.Trials == 0 {
		c.Trials = 2
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 2
	}
	if c.RoundDeadline == 0 {
		c.RoundDeadline = 800 * time.Millisecond
	}
	if c.MaxNormMult == 0 {
		c.MaxNormMult = 3
	}
	if c.StrikeLimit == 0 {
		c.StrikeLimit = 2
	}
	if c.Name == "" {
		c.Name = c.cellName()
	}
	return c
}

// cellName derives the canonical cell label from the axes.
func (c Config) cellName() string {
	adv := string(c.Adversary.Strategy)
	if !c.Adversary.Active() {
		adv = "none"
	} else if c.Adversary.Evasion > 0 {
		adv = fmt.Sprintf("%s-evade", c.Adversary.Strategy)
	}
	net := c.Network.Name
	if net == "" {
		net = "clean"
	}
	return fmt.Sprintf("%s/%s/a%g/%s", adv, net, c.Alpha, c.Codec)
}

// validate rejects configurations the runner cannot honor.
func (c Config) validate() error {
	if err := c.Adversary.Validate(); err != nil {
		return err
	}
	if c.Adversary.Count >= c.Clients {
		return fmt.Errorf("scenario %s: %d adversaries need at least %d clients (client 0 must stay honest to carry the eval curve)",
			c.Name, c.Adversary.Count, c.Adversary.Count+1)
	}
	if c.Network.Kill && c.CheckpointDir == "" {
		return fmt.Errorf("scenario %s: kill cells need a CheckpointDir", c.Name)
	}
	if c.Network.DropRate < 0 || c.Network.DropRate > 1 {
		return fmt.Errorf("scenario %s: drop rate %g outside [0, 1]", c.Name, c.Network.DropRate)
	}
	if c.Codec < wire.CodecDense || c.Codec > wire.CodecSparseQ16 {
		return fmt.Errorf("scenario %s: unknown codec %d", c.Name, c.Codec)
	}
	if !(c.TrimFraction >= 0 && c.TrimFraction < 0.5) {
		return fmt.Errorf("scenario %s: trim fraction %g outside [0, 0.5)", c.Name, c.TrimFraction)
	}
	return nil
}

// TrialSeed derives the seed of one trial from the cell's base seed. It
// is the single reproducibility handle: re-running a cell's trial t with
// the same base seed replays data, partitions, init, schedules, and
// attack draws identically.
func TrialSeed(seed int64, trial int) int64 {
	return stats.SplitRNG(seed, int64(9_000_000+trial)).Int63()
}

// matrixAdversaries returns the adversary axis of the default matrix:
// one honest arm and four single-poisoner strategies, including the two
// the norm gate is blind to. Sign-flip preserves the norm exactly; the
// evasive scaler stays at 1.5× the honest norm — model norms grow while
// the median history lags, so the gate's effective multiple over the
// *current* honest norm shrinks below its nominal 3×, and 1.5× is the
// largest factor that stays under it across the whole run in every
// arrival order. Onset 3 gives the validator's median history time to
// arm, which is also what a stealthy adversary would do.
func matrixAdversaries() []adversary.Spec {
	return []adversary.Spec{
		{Strategy: adversary.None},
		{Strategy: adversary.Scale, Count: 1, Onset: 3},
		{Strategy: adversary.Scale, Count: 1, Onset: 3, Evasion: 1.5},
		{Strategy: adversary.SignFlip, Count: 1, Onset: 3},
		{Strategy: adversary.Noise, Count: 1, Onset: 3},
	}
}

// DefaultMatrix is the full benchmark matrix behind BENCH_scenarios.json:
// 5 adversary arms × 2 network models × 2 Dirichlet α × 3 codecs.
func DefaultMatrix(seed int64, trials int) []Config {
	return buildMatrix(seed, trials,
		matrixAdversaries(),
		[]NetworkSpec{CleanNetwork(), FlakyNetwork()},
		[]float64{0.3, 10},
		[]wire.Codec{wire.CodecDense, wire.CodecSparse, wire.CodecSparseQ16},
	)
}

// SmokeMatrix is the CI smoke subset: one α, two codecs, three adversary
// arms, both network models, one trial per cell — small enough to run
// race-enabled on every push while still exercising every gate kind.
func SmokeMatrix(seed int64) []Config {
	adv := matrixAdversaries()
	return buildMatrix(seed, 1,
		[]adversary.Spec{adv[0], adv[1], adv[3]}, // none, scale, sign-flip
		[]NetworkSpec{CleanNetwork(), FlakyNetwork()},
		[]float64{0.3},
		[]wire.Codec{wire.CodecDense, wire.CodecSparseQ16},
	)
}

// Matrix-wide defense calibration. The cosine floor sits well under the
// ≥ 0.5 cosines honest tinyNet updates keep against the decayed
// reference even at α = 0.3, while a sign-flip lands near −1; the round
// review multiple sits between the honest round spread (within ~1.2× of
// the round median on every matrix cell) and the 1.5× evasive scaler.
const (
	matrixCosineFloor   = 0.2
	matrixRoundNormMult = 1.35
)

// buildMatrix crosses the axes into cell configs.
func buildMatrix(seed int64, trials int, advs []adversary.Spec, nets []NetworkSpec, alphas []float64, codecs []wire.Codec) []Config {
	var out []Config
	for _, a := range advs {
		for _, n := range nets {
			for _, alpha := range alphas {
				for _, codec := range codecs {
					cfg := Config{
						Alpha:     alpha,
						Codec:     codec,
						Adversary: a,
						Network:   n,
						Trials:    trials,
						Seed:      seed,
						// The benchmark matrix runs with the direction gate
						// and post-round norm review armed; the norm-only
						// baseline lives in DefenseMatrix.
						CosineFloor:   matrixCosineFloor,
						RoundNormMult: matrixRoundNormMult,
						// Clean honest cells must actually learn; the floor
						// is far under the ~0.9 these cells reach, so it only
						// trips on real convergence regressions.
						MinAcc: accFloor(a),
					}
					out = append(out, cfg.withDefaults())
				}
			}
		}
	}
	return out
}

// DefenseMatrix is the ablation appended to the benchmark matrix: the
// three blind-spot-relevant adversaries under cumulative defense tiers —
// norm gate only (the documented blind spots, TPR floors exempted),
// + cosine gate and round review, + trimmed-mean aggregation. All cells
// run clean network, α 0.3, dense codec so the only moving axis is the
// defense; EXPERIMENTS.md reads its time-to-quarantine comparison off
// these cells.
func DefenseMatrix(seed int64, trials int) []Config {
	advs := map[string]adversary.Spec{
		"scale":       {Strategy: adversary.Scale, Count: 1, Onset: 3},
		"scale-evade": {Strategy: adversary.Scale, Count: 1, Onset: 3, Evasion: 1.5},
		"sign-flip":   {Strategy: adversary.SignFlip, Count: 1, Onset: 3},
	}
	tiers := []struct {
		name string
		arm  func(*Config)
	}{
		{"norm", func(c *Config) {
			// Norm gate only: sign-flip and the evasive scaler slip
			// through by construction, so exempt the cells from the
			// strategy TPR floors — the measured TPR is the point.
			c.MinTPR = -1
		}},
		{"cosine", func(c *Config) {
			c.CosineFloor = matrixCosineFloor
			c.RoundNormMult = matrixRoundNormMult
		}},
		{"trimmed", func(c *Config) {
			c.CosineFloor = matrixCosineFloor
			c.RoundNormMult = matrixRoundNormMult
			c.TrimFraction = 0.25
		}},
	}
	var out []Config
	for _, tier := range tiers {
		for _, strat := range []string{"scale", "scale-evade", "sign-flip"} {
			cfg := Config{
				Name:      fmt.Sprintf("defense/%s/%s", tier.name, strat),
				Alpha:     0.3,
				Codec:     wire.CodecDense,
				Adversary: advs[strat],
				Network:   CleanNetwork(),
				Trials:    trials,
				Seed:      seed,
			}
			tier.arm(&cfg)
			out = append(out, cfg.withDefaults())
		}
	}
	return out
}

// accFloor assigns the per-cell CI accuracy floor. Only honest arms are
// gated: poisoned-cell accuracy is a measurement (how much damage gets
// through), not an invariant.
func accFloor(a adversary.Spec) float64 {
	if a.Active() {
		return 0
	}
	return 0.5
}
