package main

import (
	"math"

	"apf/internal/stats"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of vals by linear
// interpolation between order statistics; 0 for an empty slice, so a row
// nothing was recorded for reads 0.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return stats.Percentile(vals, 100*p)
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// spread is the interquartile range of vals as a share of their median —
// the run-to-run noise figure -compare holds against a metric's bound.
func spread(vals []float64) float64 {
	m := median(vals)
	if len(vals) < 2 || m == 0 {
		return 0
	}
	return (percentile(vals, 0.75) - percentile(vals, 0.25)) / math.Abs(m)
}
