package workload

import (
	"math"
	"sort"
	"testing"

	"prunesim/internal/pet"
	"prunesim/internal/task"
)

var testMatrix = pet.Standard(pet.DefaultParams())

func cfgWith(n int, model string) Config {
	c := DefaultConfig(n)
	c.Model = model
	return c
}

// mustGenerate fails the test on a config error; most tests use valid
// configs and only care about the task list.
func mustGenerate(t *testing.T, cfg Config) []*task.Task {
	t.Helper()
	tasks, err := Generate(testMatrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

func TestGenerateCountNearTarget(t *testing.T) {
	for _, model := range []string{ModelConstant, ModelSpiky, ModelPoisson, ModelDiurnal, ModelMMPP} {
		cfg := cfgWith(15000, model)
		// MMPP's task count is conditioned on the trial's shared modulating
		// chain, whose realized burst occupancy swings with only a handful
		// of cycles per span — single trials legitimately deviate ±10%, so
		// average over several and loosen the band.
		trials, tol := 1, 0.05
		if model == ModelMMPP {
			trials, tol = 10, 0.10
		}
		total := 0
		for trial := 0; trial < trials; trial++ {
			cfg.Trial = trial
			total += len(mustGenerate(t, cfg))
		}
		got := float64(total) / float64(trials)
		if math.Abs(got-15000) > tol*15000 {
			t.Errorf("%v: generated %v tasks on average, want ~15000", model, got)
		}
	}
}

func TestGenerateSortedAndIDs(t *testing.T) {
	for _, model := range []string{ModelSpiky, ModelPoisson, ModelDiurnal, ModelMMPP} {
		tasks := mustGenerate(t, cfgWith(5000, model))
		if !sort.SliceIsSorted(tasks, func(i, j int) bool { return tasks[i].Arrival < tasks[j].Arrival }) {
			t.Fatalf("%s: tasks not sorted by arrival", model)
		}
		for i, tk := range tasks {
			if tk.ID != i {
				t.Fatalf("%s: task %d has ID %d", model, i, tk.ID)
			}
			if tk.Arrival < 0 || tk.Arrival > 3000 {
				t.Fatalf("%s: arrival %v outside span", model, tk.Arrival)
			}
		}
	}
}

func TestDeadlineFormulaBounds(t *testing.T) {
	cfg := cfgWith(3000, ModelConstant)
	tasks := mustGenerate(t, cfg)
	for _, tk := range tasks {
		slack := tk.Deadline - tk.Arrival - testMatrix.TaskAvg(tk.Type)
		lo := cfg.BetaLo * testMatrix.AvgAll()
		hi := cfg.BetaHi * testMatrix.AvgAll()
		if slack < lo-1e-9 || slack > hi+1e-9 {
			t.Fatalf("task %d slack %v outside [%v,%v]", tk.ID, slack, lo, hi)
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, model := range []string{ModelSpiky, ModelPoisson, ModelDiurnal, ModelMMPP} {
		cfg := cfgWith(4000, model)
		a := mustGenerate(t, cfg)
		b := mustGenerate(t, cfg)
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ: %d vs %d", model, len(a), len(b))
		}
		for i := range a {
			if a[i].Arrival != b[i].Arrival || a[i].Deadline != b[i].Deadline || a[i].Type != b[i].Type {
				t.Fatalf("%s: task %d differs between identical generations", model, i)
			}
		}
	}
}

func TestTrialsDiffer(t *testing.T) {
	for _, model := range []string{ModelSpiky, ModelPoisson, ModelDiurnal, ModelMMPP} {
		cfg := cfgWith(4000, model)
		a := mustGenerate(t, cfg)
		cfg.Trial = 1
		b := mustGenerate(t, cfg)
		if len(a) == len(b) {
			same := true
			for i := range a {
				if a[i].Arrival != b[i].Arrival {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("%s: different trials produced identical arrivals", model)
			}
		}
	}
}

func TestAllTypesPresent(t *testing.T) {
	tasks := mustGenerate(t, cfgWith(6000, ModelConstant))
	seen := make(map[int]int)
	for _, tk := range tasks {
		seen[tk.Type]++
	}
	if len(seen) != testMatrix.NumTaskTypes() {
		t.Fatalf("only %d/%d task types present", len(seen), testMatrix.NumTaskTypes())
	}
	// Types have equal expected counts; allow generous tolerance.
	want := float64(len(tasks)) / float64(testMatrix.NumTaskTypes())
	for tt, n := range seen {
		if math.Abs(float64(n)-want) > 0.25*want {
			t.Errorf("type %d count %d far from expected %v", tt, n, want)
		}
	}
}

func TestSpikyBurstiness(t *testing.T) {
	// Compare max windowed arrival count: spiky must exceed constant.
	window := 25.0
	counts := func(model string) (maxCount int) {
		tasks := mustGenerate(t, cfgWith(15000, model))
		bins := make(map[int]int)
		for _, tk := range tasks {
			bins[int(tk.Arrival/window)]++
		}
		for _, c := range bins {
			if c > maxCount {
				maxCount = c
			}
		}
		return maxCount
	}
	spiky, constant := counts(ModelSpiky), counts(ModelConstant)
	if float64(spiky) < 1.4*float64(constant) {
		t.Fatalf("spiky peak %d not clearly above constant peak %d", spiky, constant)
	}
}

func TestRateProfile(t *testing.T) {
	cfg := cfgWith(12000, ModelSpiky)
	// Rate during a lull should be base; during a spike, 3x base.
	segment := cfg.TimeSpan / float64(cfg.NumSpikes)
	lullT := segment * 0.3                // inside first lull
	spikeT := segment*3/4 + 0.1*segment/4 // inside first spike
	rl := mustRate(t, cfg, lullT)
	rs := mustRate(t, cfg, spikeT)
	if math.Abs(rs/rl-cfg.SpikeFactor) > 1e-9 {
		t.Fatalf("spike/lull rate ratio %v, want %v", rs/rl, cfg.SpikeFactor)
	}
	if mustRate(t, cfg, -5) != 0 || mustRate(t, cfg, cfg.TimeSpan+5) != 0 {
		t.Fatal("rate outside span should be 0")
	}
	// Average of Rate over the span * span should equal NumTasks.
	model, err := NewArrivalModel(cfg, testMatrix.NumTaskTypes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	n := 30000
	for i := 0; i < n; i++ {
		sum += model.Rate(cfg.TimeSpan * float64(i) / float64(n))
	}
	integral := sum / float64(n) * cfg.TimeSpan
	if math.Abs(integral-float64(cfg.NumTasks)) > 0.02*float64(cfg.NumTasks) {
		t.Fatalf("rate integral %v, want ~%v", integral, cfg.NumTasks)
	}
}

func mustRate(t *testing.T, cfg Config, at float64) float64 {
	t.Helper()
	model, err := NewArrivalModel(cfg, testMatrix.NumTaskTypes())
	if err != nil {
		t.Fatal(err)
	}
	return model.Rate(at)
}

func TestConstantRate(t *testing.T) {
	cfg := cfgWith(9000, ModelConstant)
	r := mustRate(t, cfg, 1500)
	want := float64(cfg.NumTasks) / cfg.TimeSpan
	if math.Abs(r-want) > 1e-9 {
		t.Fatalf("constant rate %v, want %v", r, want)
	}
}

func TestValidationErrors(t *testing.T) {
	bad := []Config{
		{Model: ModelConstant, NumTasks: 0, TimeSpan: 10, IATVarianceFrac: 0.1, BetaLo: 1, BetaHi: 2},
		{Model: ModelConstant, NumTasks: 10, TimeSpan: 0, IATVarianceFrac: 0.1, BetaLo: 1, BetaHi: 2},
		{Model: ModelConstant, NumTasks: 10, TimeSpan: 10, IATVarianceFrac: 0, BetaLo: 1, BetaHi: 2},
		{Model: ModelConstant, NumTasks: 10, TimeSpan: 10, IATVarianceFrac: 0.1, BetaLo: 2, BetaHi: 1},
		{NumTasks: 10, TimeSpan: 10, IATVarianceFrac: 0.1, BetaLo: 1, BetaHi: 2, NumSpikes: 0, SpikeFactor: 3},
		{NumTasks: 10, TimeSpan: 10, IATVarianceFrac: 0.1, BetaLo: 1, BetaHi: 2, NumSpikes: 4, SpikeFactor: 1},
		{Model: "sawtooth", NumTasks: 10, TimeSpan: 10, BetaLo: 1, BetaHi: 2},
		{Model: ModelPoisson, NumTasks: 10, TimeSpan: 10, BetaLo: 1, BetaHi: 2, ValueLo: 5, ValueHi: 1},
		{Model: ModelDiurnal, NumTasks: 10, TimeSpan: 10, BetaLo: 1, BetaHi: 2,
			Diurnal: DiurnalConfig{Cycles: 1, Amplitude: 1.5}},
		// Phase-only (amplitude 0) would be a flat curve masquerading as
		// diurnal: rejected rather than silently Poisson.
		{Model: ModelDiurnal, NumTasks: 10, TimeSpan: 10, BetaLo: 1, BetaHi: 2,
			Diurnal: DiurnalConfig{Phase: 1.2}},
		{Model: ModelDiurnal, NumTasks: 10, TimeSpan: 10, BetaLo: 1, BetaHi: 2,
			Diurnal: DiurnalConfig{Pieces: []RatePiece{{Until: 0.5, Level: 1}}}},
		{Model: ModelMMPP, NumTasks: 10, TimeSpan: 10, BetaLo: 1, BetaHi: 2,
			MMPP: MMPPConfig{Rates: []float64{1, 2}, MeanHold: []float64{1}}},
		{Model: ModelMMPP, NumTasks: 10, TimeSpan: 10, BetaLo: 1, BetaHi: 2,
			MMPP: MMPPConfig{Rates: []float64{1, -2}, MeanHold: []float64{1, 1}}},
		{Model: ModelTrace, TimeSpan: 10, BetaLo: 1, BetaHi: 2},
		{Model: ModelTrace, TimeSpan: 10, BetaLo: 1, BetaHi: 2,
			Trace: TraceConfig{Arrivals: []float64{1, -2}}},
		{Model: ModelTrace, TimeSpan: 10, BetaLo: 1, BetaHi: 2,
			Trace: TraceConfig{Arrivals: []float64{1, 2}, Types: []int{0}}},
	}
	for i, cfg := range bad {
		if _, err := Generate(testMatrix, cfg); err == nil {
			t.Errorf("case %d (%+v): expected error", i, cfg)
		}
	}
}

// TestGenerateNeverPanics is the headline-bugfix regression: every invalid
// configuration must come back as an error, not a panic that would take
// down a prunesimd worker.
func TestGenerateNeverPanics(t *testing.T) {
	configs := []Config{
		{},
		{Model: ModelSpiky},
		{Model: ModelMMPP, NumTasks: 10, TimeSpan: 10, MMPP: MMPPConfig{Rates: []float64{0, 1}, MeanHold: []float64{1, 1}}},
		{Model: ModelTrace},
		{Model: "nonsense"},
		{NumTasks: -5, TimeSpan: -1, IATVarianceFrac: -1, BetaLo: math.NaN()},
	}
	for i, cfg := range configs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("case %d: Generate panicked: %v", i, r)
				}
			}()
			if _, err := Generate(testMatrix, cfg); err == nil {
				t.Errorf("case %d: invalid config accepted", i)
			}
		}()
	}
}

func TestModelNames(t *testing.T) {
	names := ModelNames()
	if len(names) != 6 || names[0] != ModelSpiky || names[5] != ModelTrace {
		t.Fatalf("model names wrong: %v", names)
	}
	for _, name := range names {
		cfg := DefaultConfig(2000)
		cfg.Model = name
		switch name {
		case ModelDiurnal:
			cfg.Diurnal = DiurnalConfig{Cycles: 2, Amplitude: 0.5}
		case ModelMMPP:
			cfg.MMPP = MMPPConfig{Rates: []float64{1, 6}, MeanHold: []float64{300, 60}}
		case ModelTrace:
			cfg.Trace = TraceConfig{Arrivals: []float64{1, 2, 3}}
		}
		m, err := NewArrivalModel(cfg, testMatrix.NumTaskTypes())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("model %s reports name %s", name, m.Name())
		}
	}
}

func BenchmarkGenerate15K(b *testing.B) {
	cfg := cfgWith(15000, ModelSpiky)
	for i := 0; i < b.N; i++ {
		cfg.Trial = i
		if _, err := Generate(testMatrix, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
