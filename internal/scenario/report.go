package scenario

import (
	"fmt"
	"time"

	"apf/internal/scenario/adversary"
	"apf/internal/stats"
)

// CellKey is the JSON-stable identity of one matrix cell — everything
// needed to reproduce it with RunTrial.
type CellKey struct {
	Name       string         `json:"name"`
	Clients    int            `json:"clients"`
	Rounds     int            `json:"rounds"`
	LocalIters int            `json:"localIters"`
	BatchSize  int            `json:"batchSize"`
	Alpha      float64        `json:"alpha"`
	Codec      string         `json:"codec"`
	Adversary  adversary.Spec `json:"adversary"`
	Network    networkKey     `json:"network"`
	Trials     int            `json:"trials"`
	Seed       int64          `json:"seed"`
	MinAcc     float64        `json:"minAcc,omitempty"`

	// Defense knobs of the cell; zero values mean "off"/"mean" and are
	// omitted so pre-defense reports stay readable.
	CosineFloor   float64 `json:"cosineFloor,omitempty"`
	RoundNormMult float64 `json:"roundNormMult,omitempty"`
	Aggregator    string  `json:"aggregator,omitempty"`
	TrimFraction  float64 `json:"trimFraction,omitempty"`
	// MinTPR is the per-cell TPR floor override (> 0 floor, < 0 exempt,
	// 0 defer to the matrix gates).
	MinTPR float64 `json:"minTPR,omitempty"`
}

// networkKey flattens NetworkSpec with the delay in integer milliseconds
// so the JSON never carries locale- or precision-dependent duration
// strings.
type networkKey struct {
	Name      string  `json:"name"`
	DropRate  float64 `json:"dropRate,omitempty"`
	DelayRate float64 `json:"delayRate,omitempty"`
	DelayMs   int64   `json:"delayMs,omitempty"`
}

// key derives the cell identity from a (defaulted) config.
func (c Config) key() CellKey {
	return CellKey{
		Name:       c.Name,
		Clients:    c.Clients,
		Rounds:     c.Rounds,
		LocalIters: c.LocalIters,
		BatchSize:  c.BatchSize,
		Alpha:      c.Alpha,
		Codec:      c.Codec.String(),
		Adversary:  c.Adversary,
		Network: networkKey{
			Name:      c.Network.Name,
			DropRate:  c.Network.DropRate,
			DelayRate: c.Network.DelayRate,
			DelayMs:   int64(c.Network.Delay / time.Millisecond),
		},
		Trials:        c.Trials,
		Seed:          c.Seed,
		CosineFloor:   c.CosineFloor,
		RoundNormMult: c.RoundNormMult,
		Aggregator:    c.Aggregator,
		TrimFraction:  c.TrimFraction,
	}
}

// ExperimentResult aggregates a cell's trials (satnet-simulator style:
// the config, the raw trials, and mean/stddev summaries).
type ExperimentResult struct {
	Cell   CellKey       `json:"cell"`
	Trials []TrialResult `json:"trials"`

	FinalAccMean float64 `json:"finalAccMean"`
	FinalAccStd  float64 `json:"finalAccStd"`
	RoundsMean   float64 `json:"roundsMean"`
	UpBytesMean  float64 `json:"upBytesMean"`
	WireMean     float64 `json:"wireMean"` // read+written

	// TruePositiveRate / FalsePositiveRate pool the confusion counts of
	// every trial; -1 when the denominator is empty (e.g. TPR with no
	// adversaries).
	TruePositiveRate  float64 `json:"truePositiveRate"`
	FalsePositiveRate float64 `json:"falsePositiveRate"`
	// TimeToQuarantineMean averages over trials that quarantined someone;
	// -1 when none did.
	TimeToQuarantineMean float64 `json:"timeToQuarantineMean"`
}

// Run executes every trial of one cell and aggregates.
func Run(cfgIn Config) (*ExperimentResult, error) {
	cfg := cfgIn.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res := &ExperimentResult{Cell: cfg.key()}
	for t := 0; t < cfg.Trials; t++ {
		tr, err := RunTrial(cfg, t)
		if err != nil {
			return nil, err
		}
		res.Trials = append(res.Trials, *tr)
	}
	res.aggregate()
	return res, nil
}

// aggregate fills the summary statistics from the trials.
func (r *ExperimentResult) aggregate() {
	var accs, rounds, up, wireB []float64
	tp, fp, tn, fn := 0, 0, 0, 0
	ttqSum, ttqN := 0.0, 0
	for _, t := range r.Trials {
		accs = append(accs, t.FinalAcc)
		rounds = append(rounds, float64(t.RoundsCommitted))
		up = append(up, float64(t.UpBytes))
		wireB = append(wireB, float64(t.WireRead+t.WireWritten))
		tp += t.TruePos
		fp += t.FalsePos
		tn += t.TrueNeg
		fn += t.FalseNeg
		if t.TimeToQuarantine >= 0 {
			ttqSum += t.TimeToQuarantine
			ttqN++
		}
	}
	r.FinalAccMean = stats.Mean(accs)
	r.FinalAccStd = stats.Std(accs)
	r.RoundsMean = stats.Mean(rounds)
	r.UpBytesMean = stats.Mean(up)
	r.WireMean = stats.Mean(wireB)
	r.TruePositiveRate, r.FalsePositiveRate = -1, -1
	if tp+fn > 0 {
		r.TruePositiveRate = float64(tp) / float64(tp+fn)
	}
	if fp+tn > 0 {
		r.FalsePositiveRate = float64(fp) / float64(fp+tn)
	}
	r.TimeToQuarantineMean = -1
	if ttqN > 0 {
		r.TimeToQuarantineMean = ttqSum / float64(ttqN)
	}
}

// Gates are the CI regression bounds evaluated over a report.
type Gates struct {
	// TPRFloor maps an adversary strategy name to the minimum pooled
	// true-positive rate of every cell running it. Strategies absent from
	// the map are ungated (sign-flip and the evasive scaler are the norm
	// gate's documented blind spots — gating them at 0 would only hide
	// that).
	TPRFloor map[string]float64 `json:"tprFloor"`
	// FPRCeiling bounds every cell's pooled false-positive rate: an
	// honest client quarantined anywhere in the matrix is a regression.
	FPRCeiling float64 `json:"fprCeiling"`
	// AccFloor is enforced per cell via CellKey.MinAcc (set by the matrix
	// builder on honest arms).
	AccFloor bool `json:"accFloor"`
}

// DefaultGates gates what the defended validator delivers: blatant
// magnitude attacks (scale, noise) must always quarantine, the two
// former blind spots are floored now that the direction gate and the
// post-round norm review are armed — sign-flip (cosine ≈ −1 against the
// reference) at 0.9, the evasive scaler (caught only by the lagging
// round review) at 0.5 — honest clients never strike, and honest cells
// must keep learning. Cells carrying MinTPR < 0 (the norm-only ablation
// tier) are exempt from the strategy floors.
func DefaultGates() Gates {
	return Gates{
		TPRFloor: map[string]float64{
			string(adversary.Scale):    1,
			string(adversary.Noise):    1,
			string(adversary.SignFlip): 0.9,
			"scale-evade":              0.5,
		},
		FPRCeiling: 0,
		AccFloor:   true,
	}
}

// Report is the BENCH_scenarios.json payload.
type Report struct {
	Suite      string             `json:"suite"`
	Version    int                `json:"version"`
	Matrix     string             `json:"matrix"`
	Seed       int64              `json:"seed"`
	Gates      Gates              `json:"gates"`
	Cells      []ExperimentResult `json:"cells"`
	Violations []string           `json:"violations"`
}

// Check evaluates the gates over every cell and records violations.
func (rep *Report) Check() []string {
	rep.Violations = []string{}
	for _, cell := range rep.Cells {
		strat := string(cell.Cell.Adversary.Strategy)
		// Evasive variants are keyed separately so a floor on the plain
		// strategy doesn't accidentally gate its blind-spot sibling.
		if cell.Cell.Adversary.Evasion > 0 {
			strat += "-evade"
		}
		// Per-cell MinTPR overrides the strategy map: > 0 is the floor,
		// < 0 exempts the cell (ablation tiers that measure a blind spot
		// rather than gate it), 0 defers to the map.
		floor, gated := rep.Gates.TPRFloor[strat]
		switch {
		case cell.Cell.MinTPR > 0:
			floor, gated = cell.Cell.MinTPR, true
		case cell.Cell.MinTPR < 0:
			gated = false
		}
		if gated && cell.Cell.Adversary.Count > 0 {
			if cell.TruePositiveRate < floor {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("%s: TPR %.3f below floor %.3f", cell.Cell.Name, cell.TruePositiveRate, floor))
			}
		}
		if cell.FalsePositiveRate > rep.Gates.FPRCeiling {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("%s: FPR %.3f above ceiling %.3f", cell.Cell.Name, cell.FalsePositiveRate, rep.Gates.FPRCeiling))
		}
		if rep.Gates.AccFloor && cell.Cell.MinAcc > 0 && cell.FinalAccMean < cell.Cell.MinAcc {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("%s: final accuracy %.3f below floor %.3f", cell.Cell.Name, cell.FinalAccMean, cell.Cell.MinAcc))
		}
	}
	return rep.Violations
}

// RunMatrix executes every cell and assembles the checked report.
func RunMatrix(matrixName string, cells []Config, seed int64, gates Gates, progress func(string)) (*Report, error) {
	rep := &Report{
		Suite:   "scenarios",
		Version: 1,
		Matrix:  matrixName,
		Seed:    seed,
		Gates:   gates,
	}
	for _, cfg := range cells {
		cfg = cfg.withDefaults()
		// Carry the builder's gate overrides into the cell identity so the
		// report is self-describing.
		key := cfg.key()
		key.MinAcc = cfg.MinAcc
		key.MinTPR = cfg.MinTPR
		if progress != nil {
			progress(cfg.Name)
		}
		res, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		res.Cell = key
		rep.Cells = append(rep.Cells, *res)
	}
	rep.Check()
	return rep, nil
}
