package pmf

import (
	"math"
	"math/rand"
	"testing"
)

// The tests below pin ConvolveMaxInto to the row-major loop it replaced.
// That loop defines the summation order every golden result depends on:
// bin k adds a[i]·b[k−i] in ascending i, and products past the cap fold
// into the tail row by row. The property tests in inplace_test.go cannot
// pin the order, because both of their sides run the same kernel.

// refConvolveMax is the row-major convolution kernel: one pass per row of
// a, with the truncation split and the tail accumulation inside every row.
// The float64 conversions round each product before its add, as the
// kernel does, so the reference holds on architectures that fuse x*y+z.
func refConvolveMax(dst, a, b *PMF, maxBins int) *PMF {
	if dst == nil {
		dst = &PMF{}
	}
	n := len(a.p) + len(b.p) - 1
	keep := n
	if keep > maxBins {
		keep = maxBins
	}
	out := resize(dst.p, keep)
	for i := range out {
		out[i] = 0
	}
	tail := a.tail + b.tail - float64(a.tail*b.tail)
	for i, av := range a.p {
		if av == 0 {
			continue
		}
		jmax := keep - i
		if jmax > len(b.p) {
			jmax = len(b.p)
		}
		if jmax > 0 {
			row := out[i : i+jmax]
			bp := b.p[:jmax]
			for j, bv := range bp {
				row[j] += float64(av * bv)
			}
		} else {
			jmax = 0
		}
		for _, bv := range b.p[jmax:] {
			tail += float64(av * bv)
		}
	}
	dst.origin = a.origin + b.origin
	dst.width = a.width
	dst.p = out
	dst.tail = tail
	return dst
}

// fuzzPMF builds an n-bin PMF with total mass 1 (bins plus tail). Each bin
// is an exact zero with probability zeroPct/256, and the tail is non-zero
// when withTail is set. Edge zeros are kept: the kernel must not depend
// on New's trimming.
func fuzzPMF(r *rand.Rand, n int, zeroPct uint8, withTail bool) *PMF {
	p := make([]float64, n)
	total := 0.0
	for i := range p {
		if r.Intn(256) >= int(zeroPct) {
			p[i] = r.Float64() + 1e-3
			total += p[i]
		}
	}
	tail := 0.0
	if withTail || total == 0 {
		tail = r.Float64() + 1e-3
		total += tail
	}
	for i := range p {
		p[i] /= total
	}
	return &PMF{origin: r.Intn(16) - 8, width: 1, p: p, tail: tail / total}
}

// checkConvolve requires ConvolveMaxInto to be bitwise-equal to
// refConvolveMax on both operand orders, into a fresh and into a dirty
// destination, and to conserve mass.
func checkConvolve(t *testing.T, seed uint64, na, nb, zeroPct uint8, tails uint8, capRaw uint16) {
	r := rand.New(rand.NewSource(int64(seed)))
	a := fuzzPMF(r, 1+int(na)%64, zeroPct, tails&1 != 0)
	b := fuzzPMF(r, 1+int(nb)%64, zeroPct, tails&2 != 0)
	full := len(a.p) + len(b.p) - 1
	maxBins := 1 + int(capRaw)%(full+4)
	for _, ops := range [][2]*PMF{{a, b}, {b, a}} {
		x, y := ops[0], ops[1]
		want := refConvolveMax(nil, x, y, maxBins)
		for _, dst := range []*PMF{nil, dirtyDst(r)} {
			got := ConvolveMaxInto(dst, x, y, maxBins)
			if !bitwiseEqual(got, want) {
				t.Fatalf("%d⊛%d cap %d: kernel %v, row-major reference %v",
					len(x.p), len(y.p), maxBins, got, want)
			}
			if m := got.TotalMass(); math.Abs(m-1) > 1e-12 {
				t.Fatalf("%d⊛%d cap %d: mass %v, want 1", len(x.p), len(y.p), maxBins, m)
			}
		}
	}
}

func TestConvolveMatchesRowMajorReference(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		checkConvolve(t, seed, uint8(r.Intn(256)), uint8(r.Intn(256)),
			uint8(r.Intn(128)), uint8(r.Intn(4)), uint16(r.Intn(1<<16)))
	}
}

func FuzzConvolve(f *testing.F) {
	f.Add(uint64(1), uint8(11), uint8(5), uint8(0), uint8(0), uint16(20))   // 12-bin PCT ⊛ 6-bin PET
	f.Add(uint64(2), uint8(0), uint8(5), uint8(0), uint8(0), uint16(9))     // point mass ⊛ PET
	f.Add(uint64(3), uint8(23), uint8(5), uint8(64), uint8(3), uint16(32))  // zeros and tails
	f.Add(uint64(4), uint8(40), uint8(17), uint8(32), uint8(1), uint16(20)) // cap of 21 of 58 bins
	f.Add(uint64(5), uint8(63), uint8(63), uint8(0), uint8(2), uint16(0))   // cap of one bin
	f.Fuzz(checkConvolve)
}
