// Package stats provides the numerical helpers used by calibration and
// evaluation: descriptive statistics, the paper's error metric (mean
// absolute percentage error), linear fitting and curve analysis utilities
// (argmax with tolerance, knee detection on piecewise-linear data).
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs. It returns 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the minimum of xs and its index. Empty input returns (0, -1).
func Min(xs []float64) (float64, int) {
	if len(xs) == 0 {
		return 0, -1
	}
	m, idx := xs[0], 0
	for i, x := range xs[1:] {
		if x < m {
			m, idx = x, i+1
		}
	}
	return m, idx
}

// Max returns the maximum of xs and its index. Empty input returns (0, -1).
func Max(xs []float64) (float64, int) {
	if len(xs) == 0 {
		return 0, -1
	}
	m, idx := xs[0], 0
	for i, x := range xs[1:] {
		if x > m {
			m, idx = x, i+1
		}
	}
	return m, idx
}

// StdDev returns the population standard deviation of xs (0 for n < 2).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// SampleStdDev returns the sample (Bessel-corrected, n−1) standard
// deviation of xs (0 for n < 2). Replication sweeps use it: the
// replications are a sample of the run-to-run noise distribution, not the
// whole population.
func SampleStdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(n-1))
}

// tCrit95 holds two-sided 95% Student-t critical values for 1..30 degrees
// of freedom; beyond 30 the normal approximation 1.96 is used (the error
// is below 2% there).
var tCrit95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// MeanCI95 returns the sample mean of xs and the half-width of its
// two-sided 95% confidence interval (Student-t on n−1 degrees of
// freedom). Fewer than two samples give a zero half-width: a single run
// carries no variability information — exactly the blind spot the
// replication sweep exists to close.
func MeanCI95(xs []float64) (mean, half float64) {
	n := len(xs)
	mean = Mean(xs)
	if n < 2 {
		return mean, 0
	}
	t := 1.96
	if df := n - 1; df <= len(tCrit95) {
		t = tCrit95[df-1]
	}
	return mean, t * SampleStdDev(xs) / math.Sqrt(float64(n))
}

// MAPE computes the paper's prediction-error metric (§IV-B):
//
//	100%/n × Σ |actual_k − predicted_k| / |actual_k|
//
// Pairs whose actual value is zero are skipped (they would be undefined);
// if every pair is skipped or the slices are empty, MAPE returns an error.
// The two slices must have equal length.
func MAPE(actual, predicted []float64) (float64, error) {
	if len(actual) != len(predicted) {
		return 0, errors.New("stats: MAPE length mismatch")
	}
	sum, n := 0.0, 0
	for i, a := range actual {
		if a == 0 {
			continue
		}
		sum += math.Abs(a-predicted[i]) / math.Abs(a)
		n++
	}
	if n == 0 {
		return 0, ErrEmpty
	}
	return 100 * sum / float64(n), nil
}

// ArgmaxTolerant returns the index of the *first* element whose value is
// within relTol (relative) of the global maximum. The paper's calibration
// "mostly looks for minima and maxima" on noisy plateaus; picking the first
// near-max point recovers the knee position rather than a point far into a
// flat plateau. Empty input returns -1.
func ArgmaxTolerant(xs []float64, relTol float64) int {
	m, idx := Max(xs)
	if idx < 0 {
		return -1
	}
	if m <= 0 {
		return idx
	}
	thresh := m * (1 - relTol)
	for i, x := range xs {
		if x >= thresh {
			return i
		}
	}
	return idx
}

// SlopeBetween returns the per-step slope of ys between indices i and j,
// i.e. (ys[j]−ys[i])/(j−i). It returns 0 when i == j.
func SlopeBetween(ys []float64, i, j int) float64 {
	if i == j {
		return 0
	}
	return (ys[j] - ys[i]) / float64(j-i)
}

// MovingAverage smooths xs with a centred window of the given odd width.
// Width <= 1 returns a copy. Edges use the available partial window.
func MovingAverage(xs []float64, width int) []float64 {
	out := make([]float64, len(xs))
	if width <= 1 {
		copy(out, xs)
		return out
	}
	half := width / 2
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi > len(xs)-1 {
			hi = len(xs) - 1
		}
		s := 0.0
		for j := lo; j <= hi; j++ {
			s += xs[j]
		}
		out[i] = s / float64(hi-lo+1)
	}
	return out
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
