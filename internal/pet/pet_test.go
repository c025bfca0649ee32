package pet

import (
	"math"
	"testing"
)

func TestStandardDimensions(t *testing.T) {
	m := Standard(DefaultParams())
	if m.NumTaskTypes() != 12 {
		t.Fatalf("task types = %d, want 12", m.NumTaskTypes())
	}
	if m.NumMachineTypes() != 8 {
		t.Fatalf("machine types = %d, want 8", m.NumMachineTypes())
	}
	if len(TaskTypeNames) != 12 || len(MachineTypeNames) != 8 {
		t.Fatal("name tables wrong size")
	}
}

func TestStandardDeterministic(t *testing.T) {
	a := Standard(DefaultParams())
	b := Standard(DefaultParams())
	for i := 0; i < a.NumTaskTypes(); i++ {
		for j := 0; j < a.NumMachineTypes(); j++ {
			if !a.PET(i, j).Equal(b.PET(i, j), 0) {
				t.Fatalf("cell (%d,%d) differs across identical constructions", i, j)
			}
		}
	}
}

func TestSeedChangesMatrix(t *testing.T) {
	p := DefaultParams()
	a := Standard(p)
	p.Seed++
	b := Standard(p)
	diff := 0
	for i := 0; i < a.NumTaskTypes(); i++ {
		for j := 0; j < a.NumMachineTypes(); j++ {
			if !a.PET(i, j).Equal(b.PET(i, j), 1e-12) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical matrices")
	}
}

func TestPMFMeansTrackConfiguredMeans(t *testing.T) {
	m := Standard(DefaultParams())
	for i := 0; i < m.NumTaskTypes(); i++ {
		for j := 0; j < m.NumMachineTypes(); j++ {
			cfg := m.ConfiguredMean(i, j)
			got := m.MeanExec(i, j)
			// Histogram of 500 samples at bin lower edges: allow half a bin
			// width plus sampling noise.
			if math.Abs(got-cfg) > 0.35+0.12*cfg {
				t.Errorf("cell (%s,%s): PMF mean %.3f vs configured %.3f",
					m.TaskTypeName(i), m.MachineTypeName(j), got, cfg)
			}
		}
	}
}

func TestInconsistentHeterogeneity(t *testing.T) {
	// The machine ranking must differ across task types (inconsistent HC
	// system): find at least one pair of machines whose order inverts
	// between two task types.
	m := Standard(DefaultParams())
	inversion := false
	for a := 0; a < m.NumMachineTypes() && !inversion; a++ {
		for b := a + 1; b < m.NumMachineTypes() && !inversion; b++ {
			aFaster, bFaster := false, false
			for tt := 0; tt < m.NumTaskTypes(); tt++ {
				if m.ConfiguredMean(tt, a) < m.ConfiguredMean(tt, b) {
					aFaster = true
				}
				if m.ConfiguredMean(tt, b) < m.ConfiguredMean(tt, a) {
					bFaster = true
				}
			}
			if aFaster && bFaster {
				inversion = true
			}
		}
	}
	if !inversion {
		t.Fatal("matrix is consistently heterogeneous: no machine-order inversion found")
	}
}

func TestTaskAvgAndAvgAll(t *testing.T) {
	m := Standard(DefaultParams())
	var want float64
	for i := 0; i < m.NumTaskTypes(); i++ {
		var row float64
		for j := 0; j < m.NumMachineTypes(); j++ {
			row += m.MeanExec(i, j)
		}
		row /= float64(m.NumMachineTypes())
		if math.Abs(m.TaskAvg(i)-row) > 1e-9 {
			t.Fatalf("TaskAvg(%d) = %v, want %v", i, m.TaskAvg(i), row)
		}
		want += row
	}
	want /= float64(m.NumTaskTypes())
	if math.Abs(m.AvgAll()-want) > 1e-9 {
		t.Fatalf("AvgAll = %v, want %v", m.AvgAll(), want)
	}
}

func TestHomogeneous(t *testing.T) {
	m := Homogeneous(DefaultParams())
	if m.NumMachineTypes() != 1 {
		t.Fatalf("homogeneous machine types = %d", m.NumMachineTypes())
	}
	if m.NumTaskTypes() != 12 {
		t.Fatalf("homogeneous task types = %d", m.NumTaskTypes())
	}
	std := Standard(DefaultParams())
	for tt := 0; tt < 12; tt++ {
		var row float64
		for j := 0; j < 8; j++ {
			row += std.ConfiguredMean(tt, j)
		}
		row /= 8
		if math.Abs(m.ConfiguredMean(tt, 0)-row) > 1e-9 {
			t.Fatalf("type %d homogeneous mean %v, want row average %v", tt, m.ConfiguredMean(tt, 0), row)
		}
	}
}

func TestNewMatrixValidation(t *testing.T) {
	p := DefaultParams()
	cases := []func(){
		func() { NewMatrix(nil, nil, nil, p) },
		func() { NewMatrix([][]float64{{1}}, []string{"a", "b"}, []string{"m"}, p) },
		func() { NewMatrix([][]float64{{1}}, []string{"a"}, []string{"m", "n"}, p) },
		func() { NewMatrix([][]float64{{1, 2}, {3}}, []string{"a", "b"}, []string{"m", "n"}, p) },
		func() { NewMatrix([][]float64{{-1}}, []string{"a"}, []string{"m"}, p) },
		func() {
			bad := p
			bad.BinWidth = 0
			NewMatrix([][]float64{{1}}, []string{"a"}, []string{"m"}, bad)
		},
		func() {
			bad := p
			bad.Samples = 0
			NewMatrix([][]float64{{1}}, []string{"a"}, []string{"m"}, bad)
		},
		func() {
			bad := p
			bad.ShapeHi = 0.5 // < ShapeLo
			NewMatrix([][]float64{{1}}, []string{"a"}, []string{"m"}, bad)
		},
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

func TestPETPMFsNormalized(t *testing.T) {
	m := Standard(DefaultParams())
	for i := 0; i < m.NumTaskTypes(); i++ {
		for j := 0; j < m.NumMachineTypes(); j++ {
			if tm := m.PET(i, j).TotalMass(); math.Abs(tm-1) > 1e-9 {
				t.Fatalf("cell (%d,%d) mass %v", i, j, tm)
			}
			if m.PET(i, j).Tail() != 0 {
				t.Fatalf("cell (%d,%d) has tail mass at construction", i, j)
			}
		}
	}
}

func BenchmarkStandardMatrix(b *testing.B) {
	p := DefaultParams()
	for i := 0; i < b.N; i++ {
		_ = Standard(p)
	}
}
