// Package pmf implements the discrete Probability Mass Function algebra at
// the heart of the paper's probabilistic task pruning: building PMFs from
// execution-time samples (the PET matrix entries), convolving a task's PET
// with the completion-time PMF of the task ahead of it to obtain its
// Probabilistic Completion Time (PCT, Eq. 1), and evaluating the chance of
// success P(PCT <= deadline) (Eq. 2).
//
// A PMF is a probability distribution over discrete time bins of fixed
// width. Bin i carries mass at the representative time (Origin+i)*Width.
// Mass that falls beyond a configurable horizon is folded into a "tail"
// bucket representing +infinity; tail mass always counts as missing any
// finite deadline, which makes truncation conservative rather than
// optimistic.
package pmf

import (
	"fmt"
	"math"

	"prunesim/internal/randx"
)

// DefaultMaxBins bounds the support of a PMF after operations that grow it
// (mainly convolution). Mass beyond the bound folds into the tail bucket.
const DefaultMaxBins = 4096

// epsilon used when comparing probability masses.
const massEps = 1e-9

// PMF is a discrete probability distribution over time bins. The zero value
// is not usable; construct PMFs with the provided constructors.
type PMF struct {
	origin int       // index of the first bin; bin i is at time (origin+i)*width
	width  float64   // bin width in simulator time units
	p      []float64 // per-bin probability mass; p[0] belongs to bin `origin`
	tail   float64   // mass at +infinity (beyond the truncation horizon)
}

// New returns a PMF with the given origin bin index, bin width, and mass
// vector. The mass vector is copied and normalized together with tail so the
// total is exactly 1. It panics if width is not positive and finite, if
// masses is empty, if any mass or the tail is negative, NaN or infinite, or
// if the total mass is zero or overflows. Every PMF therefore holds at
// least one bin and finite masses, which the convolution kernel relies on.
func New(origin int, width float64, masses []float64, tail float64) *PMF {
	checkWidth(width)
	if len(masses) == 0 {
		panic("pmf: New requires at least one bin")
	}
	if !finiteMass(tail) {
		panic("pmf: tail mass must be non-negative and finite")
	}
	total := tail
	for _, m := range masses {
		if !finiteMass(m) {
			panic("pmf: masses must be non-negative and finite")
		}
		total += m
	}
	if total <= 0 {
		panic("pmf: total mass must be positive")
	}
	if math.IsInf(total, 1) {
		panic("pmf: total mass overflows")
	}
	p := make([]float64, len(masses))
	for i, m := range masses {
		p[i] = m / total
	}
	d := &PMF{origin: origin, width: width, p: p, tail: tail / total}
	d.trim()
	return d
}

// checkWidth panics unless width is a usable bin width: positive and
// finite. A NaN width fails every comparison, so the test is written to
// reject it.
func checkWidth(width float64) {
	if !(width > 0) || math.IsInf(width, 1) {
		panic("pmf: bin width must be positive and finite")
	}
}

// finiteMass reports whether m is a usable mass: non-negative and finite.
func finiteMass(m float64) bool { return m >= 0 && !math.IsInf(m, 1) }

// Delta returns a point-mass PMF concentrated at time t (rounded to the
// nearest bin of the given width).
func Delta(t, width float64) *PMF {
	checkWidth(width)
	idx := int(math.Round(t / width))
	return &PMF{origin: idx, width: width, p: []float64{1}, tail: 0}
}

// FromSamples builds a PMF as a histogram of the given samples with the
// given bin width — exactly how the paper builds PET matrix entries from 500
// Gamma-distributed execution-time samples. It panics on an empty sample set
// or a width that is not positive and finite. Negative samples are clamped
// to zero.
func FromSamples(samples []float64, width float64) *PMF {
	if len(samples) == 0 {
		panic("pmf: FromSamples requires at least one sample")
	}
	checkWidth(width)
	lo, hi := math.MaxInt, math.MinInt
	idx := make([]int, len(samples))
	for i, s := range samples {
		if s < 0 {
			s = 0
		}
		b := int(math.Floor(s / width))
		idx[i] = b
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	masses := make([]float64, hi-lo+1)
	inc := 1.0 / float64(len(samples))
	for _, b := range idx {
		masses[b-lo] += inc
	}
	return New(lo, width, masses, 0)
}

// Width returns the bin width.
func (d *PMF) Width() float64 { return d.width }

// NumBins returns the number of finite-support bins.
func (d *PMF) NumBins() int { return len(d.p) }

// Origin returns the index of the first bin.
func (d *PMF) Origin() int { return d.origin }

// Tail returns the probability mass at +infinity.
func (d *PMF) Tail() float64 { return d.tail }

// MinTime returns the representative time of the first support bin.
func (d *PMF) MinTime() float64 { return float64(d.origin) * d.width }

// MaxTime returns the representative time of the last finite support bin.
func (d *PMF) MaxTime() float64 {
	return float64(d.origin+len(d.p)-1) * d.width
}

// Mass returns the probability mass of bin index i (absolute index, i.e. the
// bin whose representative time is i*width). Bins outside the support return
// zero.
func (d *PMF) Mass(i int) float64 {
	j := i - d.origin
	if j < 0 || j >= len(d.p) {
		return 0
	}
	return d.p[j]
}

// TotalMass returns the total probability mass including the tail. It is 1
// up to floating-point error for every properly constructed PMF.
func (d *PMF) TotalMass() float64 {
	s := d.tail
	for _, m := range d.p {
		s += m
	}
	return s
}

// Mean returns the expected value. Tail mass is treated as located at the
// last finite bin plus one width, making the estimate finite and slightly
// conservative; with default horizons tail mass is negligible.
func (d *PMF) Mean() float64 {
	var s float64
	for i, m := range d.p {
		s += float64(d.origin+i) * d.width * m
	}
	if d.tail > 0 {
		s += (d.MaxTime() + d.width) * d.tail
	}
	return s
}

// Variance returns the variance with the same tail convention as Mean.
func (d *PMF) Variance() float64 {
	mu := d.Mean()
	var s float64
	for i, m := range d.p {
		t := float64(d.origin+i) * d.width
		s += (t - mu) * (t - mu) * m
	}
	if d.tail > 0 {
		t := d.MaxTime() + d.width
		s += (t - mu) * (t - mu) * d.tail
	}
	return s
}

// ProbLE returns P(X <= t): the probability that the variable is at most t.
// Tail mass never counts. This is Eq. 2's chance-of-success evaluation when
// t is a deadline.
func (d *PMF) ProbLE(t float64) float64 {
	if t < d.MinTime() {
		return 0
	}
	hi := int(math.Floor(t/d.width+1e-9)) - d.origin
	if hi >= len(d.p) {
		hi = len(d.p) - 1
	}
	var s float64
	for i := 0; i <= hi; i++ {
		s += d.p[i]
	}
	if s > 1 {
		s = 1
	}
	return s
}

// Quantile returns the smallest representative bin time t such that
// P(X <= t) >= q, for q in (0, 1]. If the quantile falls in the tail it
// returns +Inf.
func (d *PMF) Quantile(q float64) float64 {
	if q <= 0 || q > 1 {
		panic(fmt.Sprintf("pmf: quantile %v out of range (0,1]", q))
	}
	var s float64
	for i, m := range d.p {
		s += m
		if s+massEps >= q {
			return float64(d.origin+i) * d.width
		}
	}
	return math.Inf(1)
}

// Convolve returns the distribution of the sum X + Y of two independent
// variables (Eq. 1: PCT = PET * PCT_prev). The result uses the receiver's
// bin width; both operands must share the same width. Tail mass composes:
// any mass pair involving a tail stays in the tail. The support is capped at
// DefaultMaxBins with overflow folded into the tail.
//
// Convolve allocates its result; the hot path uses ConvolveInto with a
// Scratch buffer instead. Both produce bitwise-identical results.
func (d *PMF) Convolve(o *PMF) *PMF {
	return ConvolveMaxInto(nil, d, o, DefaultMaxBins)
}

// ConvolveMax is Convolve with an explicit cap on the number of result bins.
func (d *PMF) ConvolveMax(o *PMF, maxBins int) *PMF {
	return ConvolveMaxInto(nil, d, o, maxBins)
}

// Shift returns the PMF translated by t time units (rounded to whole bins).
func (d *PMF) Shift(t float64) *PMF {
	return d.Clone().ShiftInPlace(t)
}

// ConditionMin returns the distribution conditioned on X >= t, i.e. the
// remaining completion-time distribution of a task that is known to be
// unfinished at time t. Mass strictly before t is removed and the remainder
// renormalized. If no mass remains at or after t, a point mass at t is
// returned (the task is due to finish "now").
func (d *PMF) ConditionMin(t float64) *PMF {
	return ConditionMinInto(nil, d, t)
}

// Sample draws a variate by inverse-CDF sampling over the bins, with uniform
// jitter inside the selected bin so continuous quantities (execution times)
// do not collapse onto the lattice. Tail draws return the horizon time plus
// one width (finite, pessimistic). The result is never negative.
func (d *PMF) Sample(rng *randx.RNG) float64 {
	u := rng.Float64()
	var s float64
	for i, m := range d.p {
		s += m
		if u < s {
			t := (float64(d.origin+i) + rng.Float64()) * d.width
			if t < 0 {
				t = 0
			}
			return t
		}
	}
	return d.MaxTime() + d.width
}

// Clone returns a deep copy.
func (d *PMF) Clone() *PMF {
	return &PMF{origin: d.origin, width: d.width, p: append([]float64(nil), d.p...), tail: d.tail}
}

// Equal reports whether two PMFs have identical support, width and masses up
// to tol.
func (d *PMF) Equal(o *PMF, tol float64) bool {
	if d.width != o.width {
		return false
	}
	lo := min(d.origin, o.origin)
	hi := max(d.origin+len(d.p), o.origin+len(o.p))
	for i := lo; i < hi; i++ {
		if math.Abs(d.Mass(i)-o.Mass(i)) > tol {
			return false
		}
	}
	return math.Abs(d.tail-o.tail) <= tol
}

// Support returns the representative times and masses of all non-zero bins,
// in ascending time order. Useful for plotting and CSV export.
func (d *PMF) Support() (times, masses []float64) {
	for i, m := range d.p {
		if m > 0 {
			times = append(times, float64(d.origin+i)*d.width)
			masses = append(masses, m)
		}
	}
	return times, masses
}

// String renders a compact human-readable summary.
func (d *PMF) String() string {
	return fmt.Sprintf("PMF{bins=%d width=%g range=[%g,%g] mean=%.3f tail=%.3g}",
		len(d.p), d.width, d.MinTime(), d.MaxTime(), d.Mean(), d.tail)
}

// trim removes zero-mass bins from both ends of the support.
func (d *PMF) trim() {
	lo := 0
	for lo < len(d.p) && d.p[lo] <= 0 {
		lo++
	}
	hi := len(d.p)
	for hi > lo && d.p[hi-1] <= 0 {
		hi--
	}
	if lo == hi {
		// Keep a single zero bin so the PMF stays well formed (all mass in
		// tail). This can only happen when tail == 1.
		d.p = d.p[:1]
		return
	}
	d.origin += lo
	d.p = d.p[lo:hi]
}

// Mixture returns the weighted mixture of the given PMFs. Weights must be
// non-negative and sum to a positive value; all PMFs must share one width.
func Mixture(ds []*PMF, ws []float64) *PMF {
	if len(ds) == 0 || len(ds) != len(ws) {
		panic("pmf: Mixture requires matching non-empty slices")
	}
	w := ds[0].width
	var totalW float64
	lo, hi := math.MaxInt, math.MinInt
	for i, d := range ds {
		if d.width != w {
			panic("pmf: Mixture requires equal bin widths")
		}
		if ws[i] < 0 {
			panic("pmf: Mixture weights must be non-negative")
		}
		totalW += ws[i]
		if d.origin < lo {
			lo = d.origin
		}
		if e := d.origin + len(d.p); e > hi {
			hi = e
		}
	}
	if totalW <= 0 {
		panic("pmf: Mixture weights must sum to a positive value")
	}
	masses := make([]float64, hi-lo)
	var tail float64
	for i, d := range ds {
		f := ws[i] / totalW
		for j, m := range d.p {
			masses[d.origin+j-lo] += f * m
		}
		tail += f * d.tail
	}
	return New(lo, w, masses, tail)
}
