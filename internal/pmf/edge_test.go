package pmf

import (
	"math"
	"testing"
)

// Edge-case coverage for Mixture and ConvolveMax, previously exercised only
// indirectly through the simulator.

func TestMixtureEmptyInputsPanic(t *testing.T) {
	cases := []struct {
		name string
		ds   []*PMF
		ws   []float64
	}{
		{"both empty", nil, nil},
		{"mismatched lengths", []*PMF{Delta(1, 1)}, []float64{0.5, 0.5}},
		{"empty weights", []*PMF{Delta(1, 1)}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			Mixture(tc.ds, tc.ws)
		})
	}
}

func TestMixtureZeroWeightComponentIgnored(t *testing.T) {
	a := New(0, 1, []float64{1}, 0)  // delta at 0
	b := New(10, 1, []float64{1}, 0) // delta at 10
	m := Mixture([]*PMF{a, b}, []float64{1, 0})
	if !m.Equal(a, 1e-12) {
		t.Fatalf("zero-weight component leaked into mixture: %v", m)
	}
	// The zero-weight component must not extend the support either.
	if m.NumBins() != 1 || m.Origin() != 0 {
		t.Fatalf("support not trimmed to live components: %v", m)
	}
}

func TestMixtureAllZeroWeightsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for all-zero weights")
		}
	}()
	Mixture([]*PMF{Delta(1, 1), Delta(2, 1)}, []float64{0, 0})
}

func TestMixtureNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative weight")
		}
	}()
	Mixture([]*PMF{Delta(1, 1), Delta(2, 1)}, []float64{1, -0.5})
}

func TestMixtureMismatchedWidthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched widths")
		}
	}()
	Mixture([]*PMF{Delta(1, 1), Delta(1, 2)}, []float64{1, 1})
}

func TestMixtureSingleComponentIsIdentity(t *testing.T) {
	d := New(-3, 1, []float64{0.2, 0.3, 0.5}, 0)
	m := Mixture([]*PMF{d}, []float64{42})
	if !m.Equal(d, 1e-12) {
		t.Fatalf("single-component mixture = %v, want %v", m, d)
	}
}

func TestMixtureCombinesTails(t *testing.T) {
	a := New(0, 1, []float64{0.5}, 0.5)
	b := New(0, 1, []float64{1}, 0)
	m := Mixture([]*PMF{a, b}, []float64{1, 1})
	if math.Abs(m.Tail()-0.25) > 1e-12 {
		t.Fatalf("mixture tail = %v, want 0.25", m.Tail())
	}
	if math.Abs(m.TotalMass()-1) > 1e-12 {
		t.Fatalf("mixture mass = %v, want 1", m.TotalMass())
	}
}

func TestConvolveMaxTailAccumulationAtCap(t *testing.T) {
	// Two uniform 4-bin PMFs convolve to 7 bins; a cap of 3 folds the
	// mass of bins 3..6 into the tail.
	u := New(0, 1, []float64{0.25, 0.25, 0.25, 0.25}, 0)
	c := u.ConvolveMax(u, 3)
	if c.NumBins() != 3 {
		t.Fatalf("bins = %d, want 3", c.NumBins())
	}
	// Kept mass: bin0 1/16, bin1 2/16, bin2 3/16 = 6/16; tail = 10/16.
	if math.Abs(c.Tail()-10.0/16) > 1e-12 {
		t.Fatalf("tail = %v, want %v", c.Tail(), 10.0/16)
	}
	if math.Abs(c.TotalMass()-1) > 1e-12 {
		t.Fatalf("mass = %v, want 1", c.TotalMass())
	}
	// Deadlines beyond the horizon still see only the finite mass — the
	// truncation stays conservative.
	if got := c.ProbLE(1000); math.Abs(got-6.0/16) > 1e-12 {
		t.Fatalf("ProbLE past horizon = %v, want %v", got, 6.0/16)
	}
}

func TestConvolveMaxCapOfOneKeepsSingleBin(t *testing.T) {
	u := New(2, 1, []float64{0.5, 0.5}, 0)
	c := u.ConvolveMax(u, 1)
	if c.NumBins() != 1 || c.Origin() != 4 {
		t.Fatalf("cap-1 convolution support wrong: %v", c)
	}
	if math.Abs(c.Mass(4)-0.25) > 1e-12 || math.Abs(c.Tail()-0.75) > 1e-12 {
		t.Fatalf("cap-1 masses wrong: %v", c)
	}
}

func TestConvolveMaxComposesTailMass(t *testing.T) {
	// P(either operand in tail) = ta + tb - ta*tb, plus overflow.
	a := New(0, 1, []float64{0.8}, 0.2)
	b := New(0, 1, []float64{0.5}, 0.5)
	c := a.Convolve(b)
	want := 0.2 + 0.5 - 0.2*0.5
	if math.Abs(c.Tail()-want) > 1e-12 {
		t.Fatalf("tail = %v, want %v", c.Tail(), want)
	}
}

func TestConvolveMaxMismatchedWidthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched widths")
		}
	}()
	Delta(1, 1).Convolve(Delta(1, 0.5))
}

func TestConvolveDefaultCapBoundsSupport(t *testing.T) {
	// Convolving two max-width PMFs cannot exceed DefaultMaxBins bins.
	wide := make([]float64, DefaultMaxBins)
	for i := range wide {
		wide[i] = 1
	}
	d := New(0, 1, wide, 0)
	c := d.Convolve(d)
	if c.NumBins() != DefaultMaxBins {
		t.Fatalf("bins = %d, want %d", c.NumBins(), DefaultMaxBins)
	}
	if c.Tail() <= 0 {
		t.Fatal("overflow must fold into the tail")
	}
	if math.Abs(c.TotalMass()-1) > 1e-9 {
		t.Fatalf("mass = %v, want 1", c.TotalMass())
	}
}

// TestNewRejectsNonFiniteInput: New admits only finite masses and at
// least one bin, so every PMF the kernel sees has both. An infinite mass used to normalize to a
// NaN bin (New(0, 1, {Inf, 1}, 0) gave p=[NaN] and a NaN ProbLE), and an
// infinite tail to a NaN tail.
func TestNewRejectsNonFiniteInput(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name   string
		width  float64
		masses []float64
		tail   float64
	}{
		{"NaN mass", 1, []float64{nan, 1}, 0},
		{"+Inf mass", 1, []float64{inf, 1}, 0},
		{"-Inf mass", 1, []float64{math.Inf(-1), 1}, 0},
		{"+Inf tail", 1, []float64{1}, inf},
		{"NaN tail", 1, []float64{1}, nan},
		{"total overflows", 1, []float64{math.MaxFloat64, math.MaxFloat64}, 0},
		{"NaN width", nan, []float64{1}, 0},
		{"+Inf width", inf, []float64{1}, 0},
		{"no bins", 1, nil, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("New(0, %v, %v, %v) did not panic", tc.width, tc.masses, tc.tail)
				}
			}()
			New(0, tc.width, tc.masses, tc.tail)
		})
	}
}
