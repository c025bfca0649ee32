package workload

import (
	"math/rand"
	"testing"

	"prunesim/internal/task"
)

// drain pulls every task out of a source into a slice.
func drain(s *Source) []*task.Task {
	var all []*task.Task
	for {
		t, ok := s.Next()
		if !ok {
			return all
		}
		all = append(all, t)
	}
}

// requireIdentical asserts two task lists are bit-for-bit equal across every
// workload-assigned field.
func requireIdentical(t *testing.T, label string, got, want []*task.Task) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: streamed %d tasks, materialized %d", label, len(got), len(want))
	}
	for i := range want {
		if *got[i] != *want[i] {
			t.Fatalf("%s: task %d differs:\n  streamed     %+v\n  materialized %+v", label, i, *got[i], *want[i])
		}
	}
}

func TestSourceMatchesGenerateGolden(t *testing.T) {
	cfg := DefaultConfig(600)
	cfg.Trial = 3
	cfg.ValueLo, cfg.ValueHi = 0.5, 2
	want, err := generateSorted(testMatrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(testMatrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "spiky golden", drain(src), want)
}

func TestSourceRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig(100)
	cfg.BetaLo, cfg.BetaHi = 2.5, 0.8
	if _, err := NewSource(testMatrix, cfg); err == nil {
		t.Fatalf("expected invalid config to be rejected")
	}
}

func TestSourceLiveTracksRecycling(t *testing.T) {
	cfg := DefaultConfig(200)
	src, err := NewSource(testMatrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks := drain(src)
	if src.Live() != len(tasks) {
		t.Fatalf("live = %d, want %d", src.Live(), len(tasks))
	}
	for _, tk := range tasks {
		src.Recycle(tk)
	}
	if src.Live() != 0 {
		t.Fatalf("live after recycling all = %d, want 0", src.Live())
	}
}

// TestSourceRecycledStructsReplayIdentically: recycling tasks mid-stream must
// not perturb the yielded sequence — values, not pointers, are the contract.
func TestSourceRecycledStructsReplayIdentically(t *testing.T) {
	cfg := DefaultConfig(500)
	cfg.Trial = 7
	want, err := Generate(testMatrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(testMatrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var window []*task.Task
	i := 0
	for {
		tk, ok := src.Next()
		if !ok {
			break
		}
		if *tk != *want[i] {
			t.Fatalf("task %d differs after recycling: %+v, want %+v", i, *tk, *want[i])
		}
		i++
		// Keep a short in-flight window, recycling the oldest — the access
		// pattern a streaming simulation produces.
		window = append(window, tk)
		if len(window) > 8 {
			src.Recycle(window[0])
			window = window[1:]
		}
		if live := src.Live(); live > 9 {
			t.Fatalf("live window grew to %d", live)
		}
	}
	if i != len(want) {
		t.Fatalf("streamed %d tasks, want %d", i, len(want))
	}
}

// randomConfig builds a valid random workload Config covering every arrival
// model, with randomized spans, counts, seeds and optional value draws.
func randomConfig(r *rand.Rand) Config {
	models := []string{ModelSpiky, ModelConstant, ModelPoisson, ModelDiurnal, ModelMMPP, ModelTrace}
	cfg := Config{
		Model:           models[r.Intn(len(models))],
		NumTasks:        50 + r.Intn(500),
		TimeSpan:        200 + 2500*r.Float64(),
		NumSpikes:       1 + r.Intn(9),
		SpikeFactor:     1.5 + 3*r.Float64(),
		IATVarianceFrac: 0.05 + 0.2*r.Float64(),
		BetaLo:          0.5 + r.Float64(),
		BetaHi:          2 + r.Float64(),
		Seed:            r.Uint64(),
		Trial:           r.Intn(40),
	}
	if r.Intn(2) == 0 {
		cfg.ValueLo, cfg.ValueHi = 0.1, 1+4*r.Float64()
	}
	switch cfg.Model {
	case ModelDiurnal:
		cfg.Diurnal = DiurnalConfig{Cycles: 1 + 2*r.Float64(), Amplitude: 0.2 + 0.7*r.Float64(), Phase: r.Float64()}
		if r.Intn(3) == 0 {
			cfg.Diurnal = DiurnalConfig{Pieces: []RatePiece{
				{Until: 0.25 + 0.25*r.Float64(), Level: r.Float64()},
				{Until: 1, Level: 0.5 + r.Float64()},
			}}
		}
	case ModelMMPP:
		cfg.MMPP = MMPPConfig{
			Rates:    []float64{1, 2 + 8*r.Float64()},
			MeanHold: []float64{cfg.TimeSpan / (2 + 6*r.Float64()), cfg.TimeSpan / (4 + 8*r.Float64())},
		}
	case ModelTrace:
		n := 20 + r.Intn(200)
		arr := make([]float64, n)
		for i := range arr {
			arr[i] = cfg.TimeSpan * r.Float64()
		}
		cfg.Trace = TraceConfig{Arrivals: arr}
	}
	return cfg
}

// TestSourceMatchesGeneratePropertyAllModels: across random configurations of
// all six arrival models, the streaming source replays the sort-based
// reference generator bit-for-bit.
func TestSourceMatchesGeneratePropertyAllModels(t *testing.T) {
	r := rand.New(rand.NewSource(0x50facade))
	covered := make(map[string]bool)
	for iter := 0; iter < 60; iter++ {
		cfg := randomConfig(r)
		covered[modelName(cfg)] = true
		want, err := generateSorted(testMatrix, cfg)
		if err != nil {
			t.Fatalf("iter %d (%s): %v", iter, cfg.Model, err)
		}
		src, err := NewSource(testMatrix, cfg)
		if err != nil {
			t.Fatalf("iter %d (%s): %v", iter, cfg.Model, err)
		}
		requireIdentical(t, cfg.Model, drain(src), want)
	}
	for _, m := range []string{ModelSpiky, ModelConstant, ModelPoisson, ModelDiurnal, ModelMMPP, ModelTrace} {
		if !covered[m] {
			t.Errorf("property test never exercised model %q", m)
		}
	}
}

// TestSourceMatchesGenerateWithSurgeOverlay: the equivalence must survive
// WithRateWindows wrapping (overlay streams splice surge extras into the
// base stream).
func TestSourceMatchesGenerateWithSurgeOverlay(t *testing.T) {
	r := rand.New(rand.NewSource(0x0ef2))
	for iter := 0; iter < 20; iter++ {
		cfg := randomConfig(r)
		if cfg.Model == ModelTrace {
			cfg.Model = ModelPoisson
		}
		base, err := NewArrivalModel(cfg, testMatrix.NumTaskTypes())
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		from := cfg.TimeSpan * 0.2 * r.Float64()
		until := from + cfg.TimeSpan*(0.1+0.3*r.Float64())
		model, err := WithRateWindows(base, []RateWindow{
			{From: from, Until: until, Factor: 1.5 + 2*r.Float64()},
		}, cfg, testMatrix.NumTaskTypes())
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		want := generateSortedWith(testMatrix, model, cfg)
		got := drain(NewSourceWith(testMatrix, model, cfg))
		requireIdentical(t, "surge overlay", got, want)
	}
}
