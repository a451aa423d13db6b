package scenario

import (
	"reflect"
	"testing"
	"time"

	"apf/internal/scenario/adversary"
	"apf/internal/wire"
)

// codecCell builds the shared adversarial cell of the codec-equivalence
// tests; only the codec varies between arms.
func codecCell(codec wire.Codec, spec adversary.Spec) Config {
	cfg := testCfg()
	cfg.Codec = codec
	cfg.Adversary = spec
	return cfg
}

// outcomes runs one cell and returns the per-client detection records.
func outcomes(t *testing.T, cfg Config) []ClientOutcome {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trials[0].Clients
}

// TestBlatantPoisonerQuarantinedIdenticallyAcrossCodecs: the same scale
// attack must produce identical strikes, quarantine flags, and
// quarantine rounds whether the cluster speaks dense, sparse, or
// sparse-q16 framing — the validator sees through the codec.
func TestBlatantPoisonerQuarantinedIdenticallyAcrossCodecs(t *testing.T) {
	spec := adversary.Spec{Strategy: adversary.Scale, Count: 1, Onset: 3}
	dense := outcomes(t, codecCell(wire.CodecDense, spec))

	adv := dense[len(dense)-1]
	if !adv.Quarantined || adv.Strikes != 2 || adv.QuarantineRound != 4 {
		t.Fatalf("dense adversary outcome = %+v, want quarantine at round 4 with 2 strikes", adv)
	}
	for _, codec := range []wire.Codec{wire.CodecSparse, wire.CodecSparseQ16} {
		got := outcomes(t, codecCell(codec, spec))
		if !reflect.DeepEqual(got, dense) {
			t.Errorf("codec %s outcomes %+v differ from dense %+v", codec, got, dense)
		}
	}
}

// TestEvasivePoisonerScoredIdenticallyAcrossCodecs: an evasive scaler
// (1.5× the honest norm, just under the gate once the lagging median is
// accounted for) must slip through with zero strikes on every codec —
// including sparse-q16, whose binary16 rounding must not nudge the norm
// across the gate in either direction.
func TestEvasivePoisonerScoredIdenticallyAcrossCodecs(t *testing.T) {
	spec := adversary.Spec{Strategy: adversary.Scale, Count: 1, Onset: 3, Evasion: 1.5}
	dense := outcomes(t, codecCell(wire.CodecDense, spec))

	adv := dense[len(dense)-1]
	if adv.Quarantined || adv.Strikes != 0 {
		t.Fatalf("dense evasive adversary outcome = %+v, want zero strikes (under the gate)", adv)
	}
	for _, codec := range []wire.Codec{wire.CodecSparse, wire.CodecSparseQ16} {
		got := outcomes(t, codecCell(codec, spec))
		if !reflect.DeepEqual(got, dense) {
			t.Errorf("codec %s outcomes %+v differ from dense %+v", codec, got, dense)
		}
	}
}

// TestQuarantineSurvivesKillRestart: the coordinator is killed after the
// poisoner is quarantined and restarted from its checkpoint; the
// restored validator must still hold the quarantine (and its strike
// count), the run must finish every round, and the final model must be
// bit-identical to an uninterrupted run of the same cell.
func TestQuarantineSurvivesKillRestart(t *testing.T) {
	spec := adversary.Spec{Strategy: adversary.Scale, Count: 1, Onset: 2}
	base := testCfg()
	base.Adversary = spec
	base.Codec = wire.CodecSparse
	base.RoundDeadline = 600 * time.Millisecond

	plain, err := RunTrial(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	padv := plain.Clients[len(plain.Clients)-1]
	if !padv.Quarantined || padv.QuarantineRound != 3 {
		t.Fatalf("uninterrupted adversary outcome = %+v, want quarantine at round 3", padv)
	}

	killed := base
	killed.CheckpointDir = t.TempDir()
	killed.Network.Kill = true
	killed.Network.KillRound = 5 // after the round-3 quarantine is snapshotted
	kres, err := RunTrial(killed, 0)
	if err != nil {
		t.Fatal(err)
	}
	kadv := kres.Clients[len(kres.Clients)-1]
	if !kadv.Quarantined {
		t.Error("quarantine did not survive the kill+restart")
	}
	if kadv.Strikes != padv.Strikes {
		t.Errorf("restored strikes = %d, want %d", kadv.Strikes, padv.Strikes)
	}
	// Snapshots carry the quarantine round since the validator state grew
	// its optional tail; the restored record matches the uninterrupted one.
	if kadv.QuarantineRound != padv.QuarantineRound {
		t.Errorf("restored quarantine round = %d, want %d", kadv.QuarantineRound, padv.QuarantineRound)
	}
	if kres.RoundsCommitted != plain.RoundsCommitted {
		t.Errorf("killed run committed %d rounds, uninterrupted %d", kres.RoundsCommitted, plain.RoundsCommitted)
	}
	if kres.ModelHash != plain.ModelHash {
		t.Errorf("final model diverged across kill+restart: %x vs %x", kres.ModelHash, plain.ModelHash)
	}
	if kres.Reconnects < len(kres.Clients) {
		t.Errorf("expected every client to resume after the kill, got %d reconnects", kres.Reconnects)
	}
}

// TestCosineQuarantineSurvivesKillRestart: a sign-flipper is caught by
// the direction gate (the norm gate is blind to it), the coordinator is
// killed after the quarantine is snapshotted, and the restored
// validator — including the persisted reference direction and decay
// bookkeeping — must still hold the quarantine rather than readmit the
// flipper with a blank reference.
func TestCosineQuarantineSurvivesKillRestart(t *testing.T) {
	base := testCfg()
	base.Rounds = 8
	base.Adversary = adversary.Spec{Strategy: adversary.SignFlip, Count: 1, Onset: 2}
	base.CosineFloor = matrixCosineFloor
	base.RoundNormMult = matrixRoundNormMult
	base.RoundDeadline = 600 * time.Millisecond

	plain, err := RunTrial(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	padv := plain.Clients[len(plain.Clients)-1]
	if !padv.Quarantined {
		t.Fatalf("uninterrupted sign-flip outcome = %+v, want cosine-gate quarantine", padv)
	}

	killed := base
	killed.CheckpointDir = t.TempDir()
	killed.Network.Kill = true
	killed.Network.KillRound = padv.QuarantineRound + 2 // after the quarantine is snapshotted
	if killed.Network.KillRound >= killed.Rounds {
		t.Fatalf("quarantine round %d too late to kill after", padv.QuarantineRound)
	}
	kres, err := RunTrial(killed, 0)
	if err != nil {
		t.Fatal(err)
	}
	kadv := kres.Clients[len(kres.Clients)-1]
	if !kadv.Quarantined {
		t.Error("cosine-gate quarantine did not survive the kill+restart")
	}
	if kadv.QuarantineRound != padv.QuarantineRound {
		t.Errorf("restored quarantine round = %d, want %d", kadv.QuarantineRound, padv.QuarantineRound)
	}
	if kres.ModelHash != plain.ModelHash {
		t.Errorf("final model diverged across kill+restart: %x vs %x", kres.ModelHash, plain.ModelHash)
	}
}
