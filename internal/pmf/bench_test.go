package pmf

import (
	"testing"

	"prunesim/internal/randx"
)

// benchPMF builds a deterministic n-bin PMF resembling a PET matrix entry.
func benchPMF(n int, seed uint64) *PMF {
	rng := randx.New(seed)
	masses := make([]float64, n)
	for i := range masses {
		masses[i] = rng.Float64() + 1e-3
	}
	return New(2, 1, masses, 0)
}

// benchKernel times one convolution kernel on x ⊛ y into a recycled
// destination.
func benchKernel(b *testing.B, kernel func(dst, a, b *PMF, maxBins int) *PMF, x, y *PMF) {
	s := GetScratch()
	defer PutScratch(s)
	dst := s.Get()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = kernel(dst, x, y, DefaultMaxBins)
	}
}

// kernelShapes are the operand shapes the convolution benchmarks run:
// small and large take the row loop (the shorter operand first); pct_pet
// is a machine chain's PCT ⊛ a PET, which takes the column loop; start is
// the point mass ⊛ PET that StartNext convolves.
var kernelShapes = []struct {
	name string
	x, y *PMF
}{
	{"small", benchPMF(8, 1), benchPMF(12, 2)},
	{"large", benchPMF(256, 3), benchPMF(384, 4)},
	{"pct_pet", benchPMF(24, 12), benchPMF(6, 13)},
	{"start", Delta(3, 1), benchPMF(6, 14)},
}

// BenchmarkConvolve measures the convolution kernel — the simulator's
// single hottest operation (Eq. 1). The chained variant mirrors how a
// machine queue compounds PCTs and must run allocation-free in steady
// state via the scratch pool.
func BenchmarkConvolve(b *testing.B) {
	for _, sh := range kernelShapes {
		b.Run(sh.name, func(b *testing.B) { benchKernel(b, ConvolveMaxInto, sh.x, sh.y) })
	}
	// chained compounds a 6-deep PCT chain per iteration, recycling every
	// intermediate through one Scratch — steady state must be 0 allocs/op.
	b.Run("chained", func(b *testing.B) {
		pets := []*PMF{benchPMF(16, 5), benchPMF(24, 6), benchPMF(12, 7),
			benchPMF(20, 8), benchPMF(16, 9), benchPMF(28, 10)}
		anchor := Delta(3, 1)
		s := GetScratch()
		defer PutScratch(s)
		b.ReportAllocs()
		b.ResetTimer()
		var last float64
		for i := 0; i < b.N; i++ {
			prev := anchor
			for _, p := range pets {
				next := ConvolveInto(s.Get(), prev, p)
				if prev != anchor {
					s.Put(prev)
				}
				prev = next
			}
			last = prev.Mean()
			s.Put(prev)
		}
		b.ReportMetric(last, "chain_mean")
	})
}

// BenchmarkConditionMin measures the queue-anchor conditioning operation
// performed on every machine refresh.
func BenchmarkConditionMin(b *testing.B) {
	d := benchPMF(64, 11)
	s := GetScratch()
	defer PutScratch(s)
	dst := s.Get()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ConditionMinInto(dst, d, 20)
	}
}

// BenchmarkRefKernel runs the row-major reference kernel on the same
// shapes, as the yardstick for BenchmarkConvolve. It times test code, so
// its name stays outside the pattern scripts/bench_snapshot.sh gates.
func BenchmarkRefKernel(b *testing.B) {
	for _, sh := range kernelShapes {
		b.Run(sh.name, func(b *testing.B) { benchKernel(b, refConvolveMax, sh.x, sh.y) })
	}
}
