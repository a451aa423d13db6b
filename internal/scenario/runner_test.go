package scenario

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"apf/internal/scenario/adversary"
	"apf/internal/wire"
)

// testCfg is a fast single-trial cell for TCP tests.
func testCfg() Config {
	return Config{
		Trials:        1,
		Seed:          11,
		Alpha:         0.3,
		Codec:         wire.CodecDense,
		Network:       CleanNetwork(),
		RoundDeadline: 400 * time.Millisecond,
	}
}

// TestTrialDeterministicJSON is the RNG-plumbing regression test: two
// runs of the same scenario cell — adversary, flaky network, sparse
// codec, the full stack — must serialize to byte-identical JSON.
func TestTrialDeterministicJSON(t *testing.T) {
	cfg := testCfg()
	cfg.Adversary = adversary.Spec{Strategy: adversary.Scale, Count: 1, Onset: 3}
	cfg.Network = FlakyNetwork()
	cfg.Codec = wire.CodecSparse

	run := func() []byte {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("same-seed runs diverged:\n%s\n---\n%s", a, b)
	}
}

// TestScaleAdversaryDetected: a blatant scaler must be quarantined after
// exactly StrikeLimit attacked rounds, with clean honest scores.
func TestScaleAdversaryDetected(t *testing.T) {
	cfg := testCfg()
	cfg.Adversary = adversary.Spec{Strategy: adversary.Scale, Count: 1, Onset: 3}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TruePositiveRate != 1 {
		t.Errorf("TPR = %v, want 1", res.TruePositiveRate)
	}
	if res.FalsePositiveRate != 0 {
		t.Errorf("FPR = %v, want 0", res.FalsePositiveRate)
	}
	// Strikes accumulate on consecutive attacked rounds: onset and the
	// next round, so quarantine lands at round onset+1 and the adversary
	// survived exactly StrikeLimit attacked rounds.
	if res.TimeToQuarantineMean != 2 {
		t.Errorf("time-to-quarantine = %v, want 2", res.TimeToQuarantineMean)
	}
	tr := res.Trials[0]
	advOut := tr.Clients[len(tr.Clients)-1]
	if !advOut.Adversary || !advOut.Quarantined || advOut.QuarantineRound != 4 || advOut.Strikes != 2 {
		t.Errorf("adversary outcome = %+v, want quarantined at round 4 with 2 strikes", advOut)
	}
	for _, o := range tr.Clients[:len(tr.Clients)-1] {
		if o.Adversary || o.Quarantined || o.Strikes != 0 {
			t.Errorf("honest outcome = %+v, want clean", o)
		}
	}
	// The poisoner's round-3 rejection makes that round partial; after
	// quarantine every remaining round aggregates without it.
	if tr.PartialRounds == 0 {
		t.Error("expected partial rounds once the poisoner was rejected")
	}
}

// TestSignFlipEvadesNormGate documents the norm gate's blind spot: a
// sign-flipped update has an identical L2 norm, so detection stays at 0.
func TestSignFlipEvadesNormGate(t *testing.T) {
	cfg := testCfg()
	cfg.Adversary = adversary.Spec{Strategy: adversary.SignFlip, Count: 1, Onset: 3}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TruePositiveRate != 0 {
		t.Errorf("TPR = %v, want 0 (norm gate cannot see sign flips)", res.TruePositiveRate)
	}
	if res.FalsePositiveRate != 0 {
		t.Errorf("FPR = %v, want 0", res.FalsePositiveRate)
	}
}

// TestHonestCellOracle: an honest clean-network cell must reproduce
// bit-exactly in the in-process simulator, keep full participation, and
// learn.
func TestHonestCellOracle(t *testing.T) {
	cfg := testCfg()
	cfg.Oracle = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trials[0]
	if !tr.OracleChecked {
		t.Error("oracle did not run on an applicable cell")
	}
	if tr.PartialRounds != 0 {
		t.Errorf("honest clean cell had %d partial rounds", tr.PartialRounds)
	}
	if tr.RoundsCommitted != cfg.withDefaults().Rounds {
		t.Errorf("committed %d rounds, want %d", tr.RoundsCommitted, cfg.withDefaults().Rounds)
	}
	if res.FinalAccMean < 0.5 {
		t.Errorf("final accuracy %.3f, expected learning above 0.5", res.FinalAccMean)
	}
	if res.TruePositiveRate != -1 {
		t.Errorf("TPR = %v, want -1 (undefined without adversaries)", res.TruePositiveRate)
	}
}

// TestFlakyNetworkPreservesTraining: scheduled severs force reconnects
// but session resume keeps every client participating.
func TestFlakyNetworkPreservesTraining(t *testing.T) {
	cfg := testCfg()
	cfg.Network = FlakyNetwork()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trials[0]
	if tr.Reconnects == 0 {
		t.Error("flaky network produced no reconnects")
	}
	if tr.RoundsCommitted != cfg.withDefaults().Rounds {
		t.Errorf("committed %d rounds, want %d", tr.RoundsCommitted, cfg.withDefaults().Rounds)
	}
	if res.FalsePositiveRate != 0 {
		t.Errorf("FPR = %v under churn, want 0", res.FalsePositiveRate)
	}
}

// TestMatrixShape verifies the benchmark matrix covers the acceptance
// axes: ≥3 real adversary strategies, ≥2 network models, ≥2 Dirichlet α,
// all 3 codecs, with unique cell names.
func TestMatrixShape(t *testing.T) {
	t.Parallel()
	cells := DefaultMatrix(1, 2)
	strategies := map[string]bool{}
	nets := map[string]bool{}
	alphas := map[float64]bool{}
	codecs := map[string]bool{}
	names := map[string]bool{}
	for _, c := range cells {
		if c.Adversary.Active() {
			strategies[string(c.Adversary.Strategy)] = true
		}
		nets[c.Network.Name] = true
		alphas[c.Alpha] = true
		codecs[c.Codec.String()] = true
		if names[c.Name] {
			t.Errorf("duplicate cell name %q", c.Name)
		}
		names[c.Name] = true
		if err := c.validate(); err != nil {
			t.Errorf("cell %s invalid: %v", c.Name, err)
		}
	}
	if len(strategies) < 3 {
		t.Errorf("matrix covers %d adversary strategies, want >= 3", len(strategies))
	}
	if len(nets) < 2 {
		t.Errorf("matrix covers %d network models, want >= 2", len(nets))
	}
	if len(alphas) < 2 {
		t.Errorf("matrix covers %d alphas, want >= 2", len(alphas))
	}
	if len(codecs) != 3 {
		t.Errorf("matrix covers %d codecs, want 3", len(codecs))
	}
}

// TestValidateRefusesTrimFraction: the trim fraction alone selects the
// reduction, so a cell refuses one outside [0, 0.5) up front.
func TestValidateRefusesTrimFraction(t *testing.T) {
	t.Parallel()
	for _, frac := range []float64{-0.1, 0.5, math.NaN()} {
		c := DefenseMatrix(1, 1)[0]
		c.TrimFraction = frac
		if err := c.validate(); err == nil {
			t.Errorf("trim fraction %v accepted", frac)
		}
	}
}

// TestGates exercises the report gate logic on synthetic cells without
// running any trials.
func TestGates(t *testing.T) {
	t.Parallel()
	rep := &Report{Gates: DefaultGates()}
	mk := func(name, strategy string, count int, tpr, fpr, acc, minAcc float64) ExperimentResult {
		return ExperimentResult{
			Cell: CellKey{
				Name:      name,
				Adversary: adversary.Spec{Strategy: adversary.Strategy(strategy), Count: count},
				MinAcc:    minAcc,
			},
			TruePositiveRate:  tpr,
			FalsePositiveRate: fpr,
			FinalAccMean:      acc,
		}
	}
	rep.Cells = []ExperimentResult{
		mk("ok-honest", "none", 0, -1, 0, 0.9, 0.5),
		mk("ok-scale", "scale", 1, 1, 0, 0.8, 0),
		mk("bad-tpr", "scale", 1, 0, 0, 0.8, 0),
		mk("bad-fpr", "noise", 1, 1, 0.5, 0.8, 0),
		mk("bad-acc", "none", 0, -1, 0, 0.2, 0.5),
	}
	violations := rep.Check()
	if len(violations) != 3 {
		t.Fatalf("got %d violations (%v), want 3", len(violations), violations)
	}
}

// TestTrialSeedStable pins the (seed, trial) derivation: changing either
// input changes the trial seed, and the mapping is stable across calls.
func TestTrialSeedStable(t *testing.T) {
	t.Parallel()
	if TrialSeed(1, 0) != TrialSeed(1, 0) {
		t.Error("TrialSeed is not deterministic")
	}
	if TrialSeed(1, 0) == TrialSeed(1, 1) || TrialSeed(1, 0) == TrialSeed(2, 0) {
		t.Error("TrialSeed does not separate seeds/trials")
	}
}
