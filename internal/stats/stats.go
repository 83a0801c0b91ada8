// Package stats provides the small-sample statistics the experiment harness
// needs: means, standard deviations, and normal-approximation confidence
// intervals over the paper's ten random fields per data point.
package stats

import (
	"fmt"
	"math"
)

// Sample is a collection of observations.
type Sample []float64

// Mean returns the arithmetic mean, or NaN for an empty sample.
func (s Sample) Mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// StdDev returns the sample (n-1) standard deviation; 0 for samples of
// size < 2.
func (s Sample) StdDev() float64 {
	if len(s) < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(s)-1))
}

// StdErr returns the standard error of the mean.
func (s Sample) StdErr() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s.StdDev() / math.Sqrt(float64(len(s)))
}

// CI95 returns the half-width of a 95% confidence interval for the mean
// using the normal approximation (z = 1.96). With n = 10 fields this is the
// error-bar convention of the era's simulation papers.
func (s Sample) CI95() float64 { return 1.96 * s.StdErr() }

// NearestRank returns the nearest-rank p-th percentile (0 < p <= 1) of an
// ascending sample: the observation at rank ceil(p·n), clamped to the
// sample, so every percentile is an observed value. It returns the zero
// value for an empty sample.
func NearestRank[T any](sorted []T, p float64) T {
	var zero T
	if len(sorted) == 0 {
		return zero
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// PairedSavings summarizes a paired comparison: given per-trial
// measurements of two treatments on the same experimental units (the same
// random fields), it returns the mean per-trial fractional savings of a
// over b — mean of (1 − aᵢ/bᵢ) — and the 95% CI half-width of that mean.
// Pairing removes the between-field variance that inflates unpaired CIs.
func PairedSavings(a, b Sample) (mean, ci95 float64, err error) {
	if len(a) != len(b) {
		return 0, 0, fmt.Errorf("stats: paired samples differ in length: %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, 0, fmt.Errorf("stats: empty paired samples")
	}
	diffs := make(Sample, len(a))
	for i := range a {
		if b[i] == 0 {
			return 0, 0, fmt.Errorf("stats: zero baseline in pair %d", i)
		}
		diffs[i] = 1 - a[i]/b[i]
	}
	return diffs.Mean(), diffs.CI95(), nil
}
