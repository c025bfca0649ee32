package pmf

import "math"

// This file holds the destination-passing ("Into") and in-place variants of
// the PMF algebra. They are the allocation-free core the simulator's hot
// loop runs on; the immutable methods in pmf.go are thin wrappers over them,
// which guarantees the two paths produce bitwise-identical results (a
// property the tests assert).
//
// Ownership rules (see also DESIGN.md, "Performance"):
//
//   - A destination PMF must not alias either operand; the functions panic
//     on aliasing because the result would silently corrupt.
//   - PMFs obtained from a Scratch are valid only as destinations until an
//     Into-operation has filled them.
//   - Into-functions accept a nil destination and then allocate, so
//     callers without a buffer to reuse lose nothing.

// resize returns p with length n, reusing capacity when possible. The
// contents are unspecified. Growth is exact for a first allocation or a
// jump past twice the old capacity, so one-shot results carry no slack; a
// recycled buffer that creeps past its capacity regrows with 50% headroom,
// because pooled buffers meet a slowly rising sequence of support sizes
// and exact regrowth would reallocate at every new maximum.
func resize(p []float64, n int) []float64 {
	if cap(p) >= n {
		return p[:n]
	}
	if 2*cap(p) < n {
		return make([]float64, n)
	}
	return make([]float64, n, n+n/2)
}

// ConvolveInto computes the distribution of X + Y for independent a and b
// into dst (Eq. 1), reusing dst's storage, and returns dst. dst may be nil,
// in which case a fresh PMF is allocated; it must not alias a or b.
func ConvolveInto(dst, a, b *PMF) *PMF {
	return ConvolveMaxInto(dst, a, b, DefaultMaxBins)
}

// ConvolveMaxInto is ConvolveInto with an explicit cap on the number of
// result bins; overflow folds into the tail bucket.
//
// Bin k of the result adds a[i]·b[k−i] in ascending i, each product
// rounded to float64 before the add; products past the cap fold into the
// tail row by row, i ascending and then j ascending (DESIGN.md, "The
// in-place PMF kernel"). The outer loop runs over the shorter operand,
// and both orders keep that per-bin sequence. Both operands must hold at
// least one bin and finite masses, as every constructor guarantees:
// skipping a zero row or column then only skips adds of +0.
func ConvolveMaxInto(dst, a, b *PMF, maxBins int) *PMF {
	if a.width != b.width {
		panic("pmf: Convolve requires equal bin widths")
	}
	if maxBins < 1 {
		panic("pmf: Convolve requires maxBins >= 1")
	}
	if dst == a || dst == b {
		panic("pmf: ConvolveMaxInto destination must not alias an operand")
	}
	if dst == nil {
		dst = &PMF{}
	}
	ap, bp := a.p, b.p
	n := len(ap) + len(bp) - 1
	keep := min(n, maxBins)
	out := resize(dst.p, keep)
	// The float64 conversions round every product before its add, so no
	// architecture may fuse the multiply-add (Go fuses x*y+z on arm64).
	if len(ap) <= len(bp) {
		// Rows of a, ascending: bin k meets row i before row i+1. Row 0
		// stores 0+a[0]·b[j], which is what adding it to a cleared bin
		// gives, so only the bins past its reach need clearing.
		a0 := ap[0]
		bs := bp[:min(len(bp), keep)]
		row := out[:len(bs)]
		for j, bv := range bs {
			row[j] = 0 + float64(a0*bv)
		}
		if len(row) < len(out) {
			clear(out[len(row):])
		}
		for i, av := range ap[:min(len(ap), keep)] {
			if i > 0 && av != 0 {
				addScaled(out[i:], bp, av)
			}
		}
	} else {
		clear(out)
		// Columns of b, last to first, two per pass: bin k takes column
		// j's product before column j−1's, so as j falls it meets rows
		// k−j in ascending order, the same sequence as the row loop.
		j := min(len(bp), keep) - 1
		for ; j >= 1; j -= 2 {
			addColumnPair(out[j-1:], ap, bp[j], bp[j-1])
		}
		if j == 0 {
			addScaled(out, ap, bp[0]) // the odd column left over
		}
	}
	tail := a.tail + b.tail - float64(a.tail*b.tail)
	// Only the rows that reach the cap spill into the tail.
	for i := max(0, keep-len(bp)+1); i < len(ap); i++ {
		av := ap[i]
		if av == 0 {
			continue
		}
		for _, bv := range bp[max(0, keep-i):] {
			tail += float64(av * bv)
		}
	}
	dst.origin = a.origin + b.origin
	dst.width = a.width
	dst.p = out
	dst.tail = tail
	return dst
}

// addScaled adds x[i]·s to o[i] for every i both slices hold: one row
// or one column of a ⊛ b.
func addScaled(o, x []float64, s float64) {
	x = x[:min(len(x), len(o))]
	o = o[:len(x)]
	for i, v := range x {
		o[i] += float64(v * s)
	}
}

// addColumnPair adds columns j and j−1 of a ⊛ b, hi = b[j] and lo =
// b[j−1], into o = out[j−1:]: o[r] adds a[r−1]·hi, then a[r]·lo. It is a
// function of its own so that its loop keeps every value in a register.
func addColumnPair(o, a []float64, hi, lo float64) {
	o[0] += float64(a[0] * lo)
	as := a[:min(len(a), len(o))]
	mid := o[:len(as)]
	prev := as[0]
	for r := 1; r < len(as); r++ {
		cur := as[r]
		mid[r] = (mid[r] + float64(prev*hi)) + float64(cur*lo)
		prev = cur
	}
	if len(a) < len(o) {
		o[len(a)] += float64(a[len(a)-1] * hi)
	}
}

// ShiftInPlace translates d by t time units (rounded to whole bins) and
// returns d. It never allocates.
func (d *PMF) ShiftInPlace(t float64) *PMF {
	d.origin += int(math.Round(t / d.width))
	return d
}

// ConditionMinInPlace conditions d on X >= t in place and returns d: the
// remaining completion-time distribution of a task known to be unfinished
// at time t. Mass strictly before t is removed and the remainder
// renormalized; if no mass remains at or after t, d becomes a point mass at
// t. It never allocates.
func (d *PMF) ConditionMinInPlace(t float64) *PMF {
	cut := int(math.Ceil(t/d.width - 1e-9)) // first absolute bin index kept
	start := cut - d.origin
	if start <= 0 {
		return d
	}
	if start >= len(d.p) {
		if d.tail > 0 {
			d.origin = cut
			d.p = d.p[:1]
			d.p[0] = 0
			d.tail = 1
			return d
		}
		return d.becomeDelta(t)
	}
	total := d.tail
	for _, m := range d.p[start:] {
		total += m
	}
	if total <= massEps {
		return d.becomeDelta(t)
	}
	n := copy(d.p, d.p[start:])
	d.p = d.p[:n]
	for i := range d.p {
		d.p[i] /= total
	}
	d.origin = cut
	d.tail /= total
	return d
}

// ConditionMinInto writes the conditioning of src on X >= t into dst and
// returns dst, leaving src untouched. dst may be nil (allocates) or src
// itself (delegates to ConditionMinInPlace).
func ConditionMinInto(dst, src *PMF, t float64) *PMF {
	if dst == src {
		return src.ConditionMinInPlace(t)
	}
	if dst == nil {
		dst = &PMF{}
	}
	cut := int(math.Ceil(t/src.width - 1e-9))
	start := cut - src.origin
	if start <= 0 {
		return CopyInto(dst, src)
	}
	dst.width = src.width
	if start >= len(src.p) {
		if src.tail > 0 {
			dst.origin = cut
			dst.p = resize(dst.p, 1)
			dst.p[0] = 0
			dst.tail = 1
			return dst
		}
		return dst.becomeDelta(t)
	}
	total := src.tail
	for _, m := range src.p[start:] {
		total += m
	}
	if total <= massEps {
		return dst.becomeDelta(t)
	}
	dst.p = resize(dst.p, len(src.p)-start)
	for i, m := range src.p[start:] {
		dst.p[i] = m / total
	}
	dst.origin = cut
	dst.tail = src.tail / total
	return dst
}

// DeltaInto writes a point mass at time t (rounded to the nearest bin of
// the given width) into dst and returns dst. dst may be nil.
func DeltaInto(dst *PMF, t, width float64) *PMF {
	checkWidth(width)
	if dst == nil {
		dst = &PMF{}
	}
	dst.width = width
	return dst.becomeDelta(t)
}

// becomeDelta rewrites d as a point mass at t, keeping d's width.
func (d *PMF) becomeDelta(t float64) *PMF {
	d.origin = int(math.Round(t / d.width))
	d.p = resize(d.p, 1)
	d.p[0] = 1
	d.tail = 0
	return d
}

// CopyInto makes dst a copy of src, reusing dst's storage, and returns dst.
// dst may be nil.
func CopyInto(dst, src *PMF) *PMF {
	if dst == src {
		return dst
	}
	if dst == nil {
		dst = &PMF{}
	}
	dst.origin = src.origin
	dst.width = src.width
	dst.tail = src.tail
	dst.p = resize(dst.p, len(src.p))
	copy(dst.p, src.p)
	return dst
}
