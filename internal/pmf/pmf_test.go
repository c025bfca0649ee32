package pmf

import (
	"math"
	"testing"

	"prunesim/internal/randx"
)

const tol = 1e-9

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNewNormalizes(t *testing.T) {
	d := New(2, 1, []float64{2, 2, 4}, 0)
	if !almost(d.TotalMass(), 1, tol) {
		t.Fatalf("total mass %v", d.TotalMass())
	}
	if !almost(d.Mass(2), 0.25, tol) || !almost(d.Mass(4), 0.5, tol) {
		t.Fatalf("unexpected masses: %v %v", d.Mass(2), d.Mass(4))
	}
}

func TestNewPanics(t *testing.T) {
	cases := []func(){
		func() { New(0, 0, []float64{1}, 0) },
		func() { New(0, -1, []float64{1}, 0) },
		func() { New(0, 1, []float64{-1, 2}, 0) },
		func() { New(0, 1, []float64{0}, 0) },
		func() { New(0, 1, []float64{1}, -0.5) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// TestWidthMustBePositiveAndFinite: every constructor that takes a bin
// width rejects NaN and +Inf as it rejects zero and negatives. A NaN width
// fails every comparison, so a width <= 0 test lets it through.
func TestWidthMustBePositiveAndFinite(t *testing.T) {
	builders := map[string]func(w float64){
		"New":         func(w float64) { New(0, w, []float64{1}, 0) },
		"Delta":       func(w float64) { Delta(5, w) },
		"DeltaInto":   func(w float64) { DeltaInto(nil, 5, w) },
		"FromSamples": func(w float64) { FromSamples([]float64{1, 2}, w) },
	}
	for name, build := range builders {
		for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with width %v: expected panic", name, w)
					}
				}()
				build(w)
			}()
		}
	}
}

func TestNewTrimsZeros(t *testing.T) {
	d := New(0, 1, []float64{0, 0, 1, 2, 0}, 0)
	if d.Origin() != 2 || d.NumBins() != 2 {
		t.Fatalf("trim failed: origin=%d bins=%d", d.Origin(), d.NumBins())
	}
}

func TestDelta(t *testing.T) {
	d := Delta(5, 1)
	if !almost(d.Mean(), 5, tol) || !almost(d.Variance(), 0, tol) {
		t.Fatalf("delta mean=%v var=%v", d.Mean(), d.Variance())
	}
	if !almost(d.ProbLE(5), 1, tol) || !almost(d.ProbLE(4.9), 0, tol) {
		t.Fatalf("delta CDF wrong")
	}
}

func TestDeltaRounding(t *testing.T) {
	d := Delta(5.3, 0.5) // rounds to bin 11 -> time 5.5
	if !almost(d.Mean(), 5.5, tol) {
		t.Fatalf("delta(5.3, .5) mean = %v", d.Mean())
	}
}

func TestFromSamplesBasic(t *testing.T) {
	// Four samples in two bins of width 1: {0.2,0.7} -> bin 0, {1.1,1.9} -> bin 1.
	d := FromSamples([]float64{0.2, 0.7, 1.1, 1.9}, 1)
	if !almost(d.Mass(0), 0.5, tol) || !almost(d.Mass(1), 0.5, tol) {
		t.Fatalf("histogram masses: %v %v", d.Mass(0), d.Mass(1))
	}
}

func TestFromSamplesClampsNegative(t *testing.T) {
	d := FromSamples([]float64{-3, 0.1}, 1)
	if !almost(d.Mass(0), 1, tol) {
		t.Fatalf("negative samples should clamp to bin 0, mass=%v", d.Mass(0))
	}
}

func TestFromSamplesMeanTracksData(t *testing.T) {
	rng := randx.New(99)
	samples := make([]float64, 5000)
	var want float64
	for i := range samples {
		samples[i] = rng.GammaMeanShape(4, 9)
		want += samples[i]
	}
	want /= float64(len(samples))
	d := FromSamples(samples, 0.5)
	// Histogram representative points are bin lower edges, so the PMF mean
	// is biased low by about half a bin width.
	if math.Abs(d.Mean()-want) > 0.3 {
		t.Fatalf("histogram mean %v, sample mean %v", d.Mean(), want)
	}
}

func TestProbLE(t *testing.T) {
	d := New(0, 1, []float64{0.25, 0.25, 0.5}, 0)
	cases := []struct{ t, want float64 }{
		{-1, 0}, {0, 0.25}, {0.5, 0.25}, {1, 0.5}, {2, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := d.ProbLE(c.t); !almost(got, c.want, tol) {
			t.Errorf("ProbLE(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestProbLEIgnoresTail(t *testing.T) {
	d := New(0, 1, []float64{0.5}, 0.5)
	if got := d.ProbLE(1000); !almost(got, 0.5, tol) {
		t.Fatalf("tail mass counted toward ProbLE: %v", got)
	}
}

func TestConvolvePaperExample(t *testing.T) {
	// Figure 2 of the paper: PET {1:.75, 2:.125, 3:.125} convolved with
	// PCT {4:.5, 5:.33, 6:.17} gives
	// {5:.375, 6:.310, 7:.229, 8:.0625+0.125*0.17=?, 9:.02125}.
	pet := New(1, 1, []float64{0.75, 0.125, 0.125}, 0)
	pct := New(4, 1, []float64{0.5, 0.33, 0.17}, 0)
	got := pet.Convolve(pct)
	want := map[int]float64{
		5: 0.75 * 0.5,
		6: 0.75*0.33 + 0.125*0.5,
		7: 0.75*0.17 + 0.125*0.33 + 0.125*0.5,
		8: 0.125*0.17 + 0.125*0.33,
		9: 0.125 * 0.17,
	}
	for bin, w := range want {
		if !almost(got.Mass(bin), w, tol) {
			t.Errorf("bin %d: got %v want %v", bin, got.Mass(bin), w)
		}
	}
	if !almost(got.TotalMass(), 1, tol) {
		t.Errorf("mass not conserved: %v", got.TotalMass())
	}
}

func TestConvolveMeanAdditive(t *testing.T) {
	a := New(0, 0.5, []float64{1, 2, 3, 4}, 0)
	b := New(3, 0.5, []float64{5, 1}, 0)
	c := a.Convolve(b)
	if !almost(c.Mean(), a.Mean()+b.Mean(), 1e-6) {
		t.Fatalf("mean not additive: %v vs %v", c.Mean(), a.Mean()+b.Mean())
	}
	if !almost(c.Variance(), a.Variance()+b.Variance(), 1e-6) {
		t.Fatalf("variance not additive: %v vs %v", c.Variance(), a.Variance()+b.Variance())
	}
}

func TestConvolveWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width mismatch")
		}
	}()
	New(0, 1, []float64{1}, 0).Convolve(New(0, 0.5, []float64{1}, 0))
}

func TestConvolveTruncationFoldsToTail(t *testing.T) {
	a := New(0, 1, []float64{0.5, 0.5}, 0)
	b := New(0, 1, []float64{0.5, 0.5}, 0)
	c := a.ConvolveMax(b, 1) // only bin 0 kept -> 0.25 mass, rest to tail
	if !almost(c.Mass(0), 0.25, tol) {
		t.Fatalf("kept mass %v", c.Mass(0))
	}
	if !almost(c.Tail(), 0.75, tol) {
		t.Fatalf("tail %v, want 0.75", c.Tail())
	}
	if !almost(c.TotalMass(), 1, tol) {
		t.Fatalf("mass not conserved: %v", c.TotalMass())
	}
}

func TestConvolveTailComposition(t *testing.T) {
	a := New(0, 1, []float64{0.9}, 0.1)
	b := New(0, 1, []float64{0.8}, 0.2)
	c := a.Convolve(b)
	wantTail := 0.1 + 0.2 - 0.1*0.2
	if !almost(c.Tail(), wantTail, tol) {
		t.Fatalf("tail %v, want %v", c.Tail(), wantTail)
	}
	if !almost(c.TotalMass(), 1, tol) {
		t.Fatalf("mass %v", c.TotalMass())
	}
}

func TestShift(t *testing.T) {
	d := New(0, 0.5, []float64{1, 1}, 0)
	s := d.Shift(2)
	if !almost(s.Mean(), d.Mean()+2, tol) {
		t.Fatalf("shift mean %v, want %v", s.Mean(), d.Mean()+2)
	}
}

func TestConditionMin(t *testing.T) {
	d := New(0, 1, []float64{0.25, 0.25, 0.25, 0.25}, 0)
	c := d.ConditionMin(2)
	if !almost(c.ProbLE(1.5), 0, tol) {
		t.Fatalf("mass below cut survived: %v", c.ProbLE(1.5))
	}
	if !almost(c.Mass(2), 0.5, tol) || !almost(c.Mass(3), 0.5, tol) {
		t.Fatalf("renormalization wrong: %v %v", c.Mass(2), c.Mass(3))
	}
}

func TestConditionMinNoop(t *testing.T) {
	d := New(5, 1, []float64{1, 1}, 0)
	c := d.ConditionMin(3)
	if !d.Equal(c, tol) {
		t.Fatalf("ConditionMin below support should be a no-op")
	}
}

func TestConditionMinPastSupport(t *testing.T) {
	d := New(0, 1, []float64{1, 1}, 0)
	c := d.ConditionMin(10)
	if !almost(c.Mean(), 10, tol) {
		t.Fatalf("conditioning past support should give point mass at t: mean=%v", c.Mean())
	}
}

func TestConditionMinAllTail(t *testing.T) {
	d := New(0, 1, []float64{0.5}, 0.5)
	c := d.ConditionMin(5)
	if !almost(c.Tail(), 1, tol) {
		t.Fatalf("conditioning past support with tail should be all tail: %v", c.Tail())
	}
	if !almost(c.ProbLE(1e9), 0, tol) {
		t.Fatalf("all-tail PMF should never meet a deadline")
	}
}

func TestSampleWithinSupport(t *testing.T) {
	d := New(2, 1, []float64{1, 1, 1}, 0)
	rng := randx.New(4)
	for i := 0; i < 1000; i++ {
		v := d.Sample(rng)
		if v < 2 || v >= 5+1 {
			t.Fatalf("sample %v outside [2,6)", v)
		}
	}
}

func TestSampleMeanMatches(t *testing.T) {
	d := New(0, 1, []float64{0.2, 0.3, 0.5}, 0)
	rng := randx.New(8)
	var sum float64
	n := 200000
	for i := 0; i < n; i++ {
		sum += d.Sample(rng)
	}
	// Jitter adds width/2 on average.
	want := d.Mean() + 0.5
	if math.Abs(sum/float64(n)-want) > 0.01 {
		t.Fatalf("sample mean %v, want ~%v", sum/float64(n), want)
	}
}

func TestQuantile(t *testing.T) {
	d := New(0, 1, []float64{0.25, 0.25, 0.5}, 0)
	if q := d.Quantile(0.25); !almost(q, 0, tol) {
		t.Errorf("Quantile(0.25) = %v", q)
	}
	if q := d.Quantile(0.5); !almost(q, 1, tol) {
		t.Errorf("Quantile(0.5) = %v", q)
	}
	if q := d.Quantile(1); !almost(q, 2, tol) {
		t.Errorf("Quantile(1) = %v", q)
	}
}

func TestQuantileTailInf(t *testing.T) {
	d := New(0, 1, []float64{0.5}, 0.5)
	if q := d.Quantile(0.9); !math.IsInf(q, 1) {
		t.Fatalf("tail quantile should be +Inf, got %v", q)
	}
}

func TestMixture(t *testing.T) {
	a := Delta(0, 1)
	b := Delta(4, 1)
	m := Mixture([]*PMF{a, b}, []float64{1, 3})
	if !almost(m.Mean(), 3, tol) {
		t.Fatalf("mixture mean %v, want 3", m.Mean())
	}
	if !almost(m.Mass(0), 0.25, tol) || !almost(m.Mass(4), 0.75, tol) {
		t.Fatalf("mixture masses %v %v", m.Mass(0), m.Mass(4))
	}
}

func TestMixturePanics(t *testing.T) {
	cases := []func(){
		func() { Mixture(nil, nil) },
		func() { Mixture([]*PMF{Delta(0, 1)}, []float64{1, 2}) },
		func() { Mixture([]*PMF{Delta(0, 1), Delta(0, 0.5)}, []float64{1, 1}) },
		func() { Mixture([]*PMF{Delta(0, 1)}, []float64{-1}) },
		func() { Mixture([]*PMF{Delta(0, 1)}, []float64{0}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestSupport(t *testing.T) {
	d := New(1, 2, []float64{0.5, 0, 0.5}, 0)
	ts, ms := d.Support()
	if len(ts) != 2 || ts[0] != 2 || ts[1] != 6 {
		t.Fatalf("support times %v", ts)
	}
	if !almost(ms[0], 0.5, tol) || !almost(ms[1], 0.5, tol) {
		t.Fatalf("support masses %v", ms)
	}
}

func TestCloneIndependent(t *testing.T) {
	d := New(0, 1, []float64{1, 1}, 0)
	c := d.Clone()
	c.p[0] = 99
	if d.p[0] == 99 {
		t.Fatal("clone shares storage")
	}
}

func TestEqual(t *testing.T) {
	a := New(0, 1, []float64{1, 1}, 0)
	b := New(0, 1, []float64{1, 1}, 0)
	if !a.Equal(b, tol) {
		t.Fatal("identical PMFs not equal")
	}
	c := New(1, 1, []float64{1, 1}, 0)
	if a.Equal(c, tol) {
		t.Fatal("shifted PMFs reported equal")
	}
}

func BenchmarkConvolveTypical(b *testing.B) {
	rng := randx.New(1)
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = rng.GammaMeanShape(3, 8)
	}
	pet := FromSamples(samples, 0.5)
	pct := pet.Convolve(pet)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pet.Convolve(pct)
	}
}
