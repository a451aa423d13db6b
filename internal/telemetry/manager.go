package telemetry

import "apf/internal/core"

// managerObserver implements core.Observer against pre-registered metric
// handles. All record calls are atomic ops on scalar arguments — nothing
// escapes, so instrumented rounds stay 0 allocs/op.
type managerObserver struct {
	rounds          *Counter
	frozenFraction  *Gauge
	frozenScalars   *Gauge
	stabilityChecks *Counter
	checkFrozen     *Gauge
	thresholdDecays *Counter
	threshold       *Gauge
}

// ManagerObserver builds a core.Observer recording freezing-state metrics
// on reg. core defines the interface and knows nothing of telemetry; this
// adapter is the one bridge. Returns nil (meaning: leave Config.Observer
// unset) for a nil registry, so callers can wire it unconditionally.
func ManagerObserver(reg *Registry) core.Observer {
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
