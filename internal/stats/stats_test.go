package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{2, 4, 6})
	if s.N != 3 || s.Mean != 4 || s.Min != 2 || s.Max != 6 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.StdDev-2) > 1e-12 {
		t.Fatalf("stddev %v, want 2", s.StdDev)
	}
	// df=2 -> t=4.303; CI = 4.303*2/sqrt(3).
	want := 4.303 * 2 / math.Sqrt(3)
	if math.Abs(s.CI95-want) > 1e-9 {
		t.Fatalf("CI95 %v, want %v", s.CI95, want)
	}
}

func TestSummarizeSingleValue(t *testing.T) {
	s := Summarize([]float64{5})
	if s.Mean != 5 || s.StdDev != 0 || s.CI95 != 0 {
		t.Fatalf("single-value summary %+v", s)
	}
}

func TestSummarizeEmptyIsZeroValue(t *testing.T) {
	// Reachable from service workers on degenerate input: empty samples
	// must yield the documented zero Summary, never panic.
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("Summarize(nil) = %+v, want zero Summary", s)
	}
	if s := Summarize([]float64{}); s != (Summary{}) {
		t.Fatalf("Summarize(empty) = %+v, want zero Summary", s)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", m)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if !strings.Contains(s.String(), "±") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestTCriticalValues(t *testing.T) {
	cases := map[int]float64{1: 12.706, 29: 2.045, 30: 2.042, 100: 1.96}
	for df, want := range cases {
		if got := tCritical95(df); got != want {
			t.Errorf("t(%d) = %v, want %v", df, got, want)
		}
	}
	if !math.IsNaN(tCritical95(0)) {
		t.Error("t(0) should be NaN")
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	small := make([]float64, 5)
	large := make([]float64, 30)
	for i := range small {
		small[i] = float64(i % 2)
	}
	for i := range large {
		large[i] = float64(i % 2)
	}
	if Summarize(small).CI95 <= Summarize(large).CI95 {
		t.Fatal("CI should shrink with more samples")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := map[float64]float64{0: 10, 50: 30, 100: 50, 25: 20, 75: 40}
	for p, want := range cases {
		if got, err := Percentile(xs, p); err != nil || math.Abs(got-want) > 1e-9 {
			t.Errorf("P%v = %v (err %v), want %v", p, got, err, want)
		}
	}
	if got, err := Percentile(xs, 10); err != nil || math.Abs(got-14) > 1e-9 {
		t.Errorf("P10 interpolation = %v (err %v), want 14", got, err)
	}
	if got, err := Percentile([]float64{7}, 50); err != nil || got != 7 {
		t.Errorf("single-element percentile = %v (err %v)", got, err)
	}
}

func TestPercentileErrors(t *testing.T) {
	cases := []struct {
		xs []float64
		p  float64
	}{
		{nil, 50},
		{[]float64{1}, -1},
		{[]float64{1}, 101},
	}
	for i, c := range cases {
		if got, err := Percentile(c.xs, c.p); err == nil {
			t.Errorf("case %d: Percentile(%v, %v) = %v, want error", i, c.xs, c.p, got)
		}
	}
}

func TestPropMeanWithinMinMax(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		// Bounded inputs: the summation is not compensated, so extreme
		// float64 magnitudes would overflow, which is out of scope here.
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) / 7
		}
		s := Summarize(xs)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
