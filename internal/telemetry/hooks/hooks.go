// Package hooks adapts the narrow observer interfaces that the library
// packages define (core.Observer, checkpoint.Observer) onto a
// telemetry.Registry. The direction of the dependency is the point:
// core and checkpoint know nothing about telemetry — they publish events
// through interfaces they own, and this package (linked only by the
// binaries and tests that opt in) turns those events into metrics, so
// the APF hot path carries no metrics dependency and a nil observer
// costs one predictable branch.
package hooks

import (
	"log/slog"
	"time"

	"apf/internal/checkpoint"
	"apf/internal/core"
	"apf/internal/telemetry"
)

// managerObserver implements core.Observer against pre-registered metric
// handles. All record calls are atomic ops on scalar arguments — nothing
// escapes, so instrumented rounds stay 0 allocs/op.
type managerObserver struct {
	rounds          *telemetry.Counter
	frozenFraction  *telemetry.Gauge
	frozenScalars   *telemetry.Gauge
	stabilityChecks *telemetry.Counter
	checkFrozen     *telemetry.Gauge
	thresholdDecays *telemetry.Counter
	threshold       *telemetry.Gauge
}

// Manager builds a core.Observer recording freezing-state metrics on reg.
// Returns nil (meaning: leave Config.Observer unset) for a nil registry,
// so callers can wire it unconditionally.
func Manager(reg *telemetry.Registry) core.Observer {
	if reg == nil {
		return nil
	}
	return &managerObserver{
		rounds: reg.Counter("apf_manager_rounds_total",
			"Synchronization rounds applied by the APF manager (mask merges)."),
		frozenFraction: reg.Gauge("apf_frozen_fraction",
			"Fraction of model scalars frozen in the most recent round."),
		frozenScalars: reg.Gauge("apf_frozen_scalars",
			"Number of model scalars frozen in the most recent round."),
		stabilityChecks: reg.Counter("apf_stability_checks_total",
			"Stability checks run by the APF manager."),
		checkFrozen: reg.Gauge("apf_stability_frozen_scalars",
			"Scalars frozen by stability (random freezing excluded) at the last check."),
		thresholdDecays: reg.Counter("apf_threshold_decays_total",
			"Stability-threshold halvings (paper §6.1 decay)."),
		threshold: reg.Gauge("apf_stability_threshold",
			"Current effective-perturbation stability threshold."),
	}
}

func (o *managerObserver) RoundApplied(round, frozen, dim int) {
	o.rounds.Inc()
	o.frozenScalars.Set(float64(frozen))
	if dim > 0 {
		o.frozenFraction.Set(float64(frozen) / float64(dim))
	}
}

func (o *managerObserver) StabilityChecked(check, round, frozen int) {
	o.stabilityChecks.Inc()
	o.checkFrozen.Set(float64(frozen))
}

func (o *managerObserver) ThresholdDecayed(threshold float64) {
	o.thresholdDecays.Inc()
	o.threshold.Set(threshold)
}

// storeObserver implements checkpoint.Observer against metric handles.
type storeObserver struct {
	log *slog.Logger

	appends       *telemetry.Counter
	appendSeconds *telemetry.Histogram
	walBytes      *telemetry.Counter

	snapshots       *telemetry.Counter
	snapshotSeconds *telemetry.Histogram
	snapshotRounds  *telemetry.Gauge

	loads         *telemetry.Counter
	loadsFound    *telemetry.Counter
	replayRecords *telemetry.Counter
}

// Store builds a checkpoint.Observer recording durability metrics on reg
// and logging snapshot/recovery milestones on log (either may be nil).
func Store(reg *telemetry.Registry, log *slog.Logger) checkpoint.Observer {
	if reg == nil && log == nil {
		return nil
	}
	return &storeObserver{
		log: telemetry.With(log, "component", "checkpoint"),
		appends: reg.Counter("apf_wal_appends_total",
			"Durable (fsync'd) WAL record appends."),
		appendSeconds: reg.Histogram("apf_wal_append_seconds",
			"Latency of one WAL append including fsync.", nil),
		walBytes: reg.Counter("apf_wal_bytes_total",
			"Framed bytes appended to the WAL."),
		snapshots: reg.Counter("apf_snapshots_total",
			"Durable snapshot rotations."),
		snapshotSeconds: reg.Histogram("apf_snapshot_seconds",
			"Latency of one snapshot rotation (write, fsync, rename, recycle).", nil),
		snapshotRounds: reg.Gauge("apf_snapshot_rounds",
			"Completed rounds captured by the current snapshot generation."),
		loads: reg.Counter("apf_checkpoint_loads_total",
			"Recovery attempts via Store.Load."),
		loadsFound: reg.Counter("apf_checkpoint_loads_found_total",
			"Recovery attempts that found a usable snapshot generation."),
		replayRecords: reg.Counter("apf_wal_replayed_records_total",
			"WAL records replayed during recoveries."),
	}
}

func (o *storeObserver) AppendDone(bytes int, d time.Duration) {
	o.appends.Inc()
	o.walBytes.Add(int64(bytes))
	o.appendSeconds.Observe(d.Seconds())
}

func (o *storeObserver) SnapshotDone(rounds, bytes int, d time.Duration) {
	o.snapshots.Inc()
	o.snapshotRounds.Set(float64(rounds))
	o.snapshotSeconds.Observe(d.Seconds())
	o.log.Info("snapshot rotated", "rounds", rounds, "bytes", bytes, "took", d)
}

func (o *storeObserver) LoadDone(found bool, rounds, walRecords int, d time.Duration) {
	o.loads.Inc()
	if found {
		o.loadsFound.Inc()
		o.replayRecords.Add(int64(walRecords))
		o.log.Info("checkpoint recovered",
			"rounds", rounds, "wal_records", walRecords, "took", d)
	} else {
		o.log.Info("no checkpoint found, fresh start", "took", d)
	}
}
