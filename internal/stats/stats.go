// Package stats provides the summary statistics the evaluation reports:
// means with 95% confidence intervals over 30 workload trials, plus the
// small helpers (histograms, min/max) used by the experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the moments of one sample set.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	// CI95 is the half-width of the 95% confidence interval of the mean.
	CI95 float64
}

// Summarize computes a Summary of xs. An empty slice yields the zero
// Summary (N == 0, every moment 0) rather than a panic — the summaries are
// computed by long-lived service workers, where a panic on degenerate input
// would take the daemon down.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
		s.CI95 = tCritical95(s.N-1) * s.StdDev / math.Sqrt(float64(s.N))
	}
	return s
}

// String renders "mean ± ci" with two decimals.
func (s Summary) String() string {
	return fmt.Sprintf("%.2f ± %.2f", s.Mean, s.CI95)
}

// tCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom. Values follow the standard t-table; beyond 30
// degrees of freedom the normal approximation is used.
func tCritical95(df int) float64 {
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
		2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return math.NaN()
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank interpolation. An empty sample or an out-of-range p is an
// error, not a panic.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: Percentile requires at least one value")
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v outside [0, 100]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
