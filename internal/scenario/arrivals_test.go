package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prunesim/internal/workload"
)

// tinyWith returns a fast scenario over the given workload spec.
func tinyWith(wl Workload) Scenario {
	s := tiny()
	s.Workload = wl
	return s
}

// TestArrivalModelScenariosRun: every arrival model is selectable from the
// JSON pattern field and runs end to end through the engine.
func TestArrivalModelScenariosRun(t *testing.T) {
	eng := NewEngine(2)
	cases := map[string]Workload{
		"poisson":          {Pattern: "poisson", Tasks: 15000},
		"diurnal":          {Pattern: "diurnal", Tasks: 15000, Rate: &workload.DiurnalConfig{Cycles: 3, Amplitude: 0.6}},
		"mmpp":             {Pattern: "mmpp", Tasks: 15000, MMPP: &workload.MMPPConfig{Rates: []float64{1, 5}, MeanHold: []float64{400, 100}}},
		"diurnal-defaults": {Pattern: "diurnal", Tasks: 15000},
		"mmpp-defaults":    {Pattern: "mmpp", Tasks: 15000},
	}
	for name, wl := range cases {
		t.Run(name, func(t *testing.T) {
			out, err := eng.Run(tinyWith(wl))
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Results) != 2 || out.Results[0].Counted <= 0 {
				t.Fatalf("bad outcome: %+v", out.Robustness)
			}
			// Determinism across engines.
			again, err := NewEngine(2).Run(tinyWith(wl))
			if err != nil {
				t.Fatal(err)
			}
			if again.Robustness != out.Robustness {
				t.Fatalf("same scenario, different robustness: %+v vs %+v", out.Robustness, again.Robustness)
			}
		})
	}
}

// TestArrivalSpecNormalization: omitted diurnal/mmpp specs are filled with
// the documented defaults, so JSON omission and explicit defaults hash
// identically.
func TestArrivalSpecNormalization(t *testing.T) {
	d, err := tinyWith(Workload{Pattern: "diurnal", Tasks: 1000}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if d.Workload.Rate == nil || d.Workload.Rate.Cycles != 1 || d.Workload.Rate.Amplitude != 0.8 {
		t.Fatalf("diurnal defaults wrong: %+v", d.Workload.Rate)
	}
	m, err := tinyWith(Workload{Pattern: "mmpp", Tasks: 1000}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if m.Workload.MMPP == nil || len(m.Workload.MMPP.Rates) != 2 ||
		m.Workload.MMPP.MeanHold[0] != 3000.0/8 || m.Workload.MMPP.MeanHold[1] != 3000.0/32 {
		t.Fatalf("mmpp defaults wrong: %+v", m.Workload.MMPP)
	}

	sparse := tinyWith(Workload{Pattern: "mmpp", Tasks: 1000})
	spelled := tinyWith(Workload{Pattern: "mmpp", Tasks: 1000, MMPP: &workload.MMPPConfig{
		Rates: []float64{1, 8}, MeanHold: []float64{3000.0 / 8, 3000.0 / 32},
	}})
	if mustHash(t, sparse) != mustHash(t, spelled) {
		t.Fatal("omitted and spelled-out mmpp defaults hash differently")
	}
}

// TestArrivalValidationErrors covers the new model-specific schema checks.
func TestArrivalValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		wl   Workload
		want string
	}{
		{"rate under wrong pattern", Workload{Pattern: "poisson", Tasks: 100, Rate: &workload.DiurnalConfig{Cycles: 1}}, "workload.rate"},
		{"mmpp under wrong pattern", Workload{Pattern: "spiky", Tasks: 100, MMPP: &workload.MMPPConfig{Rates: []float64{1, 2}, MeanHold: []float64{1, 1}}}, "workload.mmpp"},
		{"trace under wrong pattern", Workload{Pattern: "constant", Tasks: 100, Trace: &workload.TraceConfig{Arrivals: []float64{1}}}, "workload.trace"},
		{"trace without spec", Workload{Pattern: "trace"}, "workload.trace"},
		{"trace path without arrivals", Workload{Pattern: "trace", Trace: &workload.TraceConfig{Path: "x.csv"}}, "trace.path"},
		{"bad amplitude", Workload{Pattern: "diurnal", Tasks: 100, Rate: &workload.DiurnalConfig{Cycles: 1, Amplitude: 2}}, "Amplitude"},
		{"flat explicit rate spec", Workload{Pattern: "diurnal", Tasks: 100, Rate: &workload.DiurnalConfig{Cycles: 2}}, "amplitude 0"},
		{"bad pieces", Workload{Pattern: "diurnal", Tasks: 100, Rate: &workload.DiurnalConfig{Pieces: []workload.RatePiece{{Until: 0.4, Level: 1}}}}, "pieces"},
		{"mmpp one state", Workload{Pattern: "mmpp", Tasks: 100, MMPP: &workload.MMPPConfig{Rates: []float64{1}, MeanHold: []float64{1}}}, "mmpp"},
		{"trace type out of range", Workload{Pattern: "trace", Trace: &workload.TraceConfig{Arrivals: []float64{1, 2}, Types: []int{0, 99}}}, "types"},
		{"unknown model", Workload{Pattern: "fractal", Tasks: 100}, "pattern"},
	}
	for _, tc := range cases {
		_, err := tinyWith(tc.wl).Normalize()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tc.want)) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestTracePathResolution: Load reads workload.trace.path relative to the
// scenario file and inlines the arrivals (so they join the content hash);
// Parse refuses path-only traces.
func TestTracePathResolution(t *testing.T) {
	dir := t.TempDir()
	csv := "time,type\n5.0,0\n10.0,1\n20.0,0\n"
	if err := os.WriteFile(filepath.Join(dir, "burst.csv"), []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := []byte(`{
		"name": "trace-file",
		"workload": {"pattern": "trace", "trace": {"path": "burst.csv"}},
		"run": {"trials": 1}
	}`)
	path := filepath.Join(dir, "trace-file.json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Workload.Trace
	if tr == nil || len(tr.Arrivals) != 3 || tr.Arrivals[1] != 10 || tr.Types[1] != 1 {
		t.Fatalf("trace not inlined from CSV: %+v", tr)
	}
	// The same document via Parse (no base directory) must be rejected.
	if _, err := Parse(doc); err == nil || !strings.Contains(err.Error(), "trace.path") {
		t.Fatalf("Parse accepted a path-only trace: %v", err)
	}
	// Editing the CSV changes the content hash (cache honesty).
	h1 := mustHash(t, s)
	if err := os.WriteFile(filepath.Join(dir, "burst.csv"), []byte(csv+"30.0,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if mustHash(t, s2) == h1 {
		t.Fatal("editing the trace CSV did not change the scenario hash")
	}
}

// TestScaleThreadsThroughModels: run.scale compresses MMPP sojourns and
// trace timestamps together with the span.
func TestScaleThreadsThroughModels(t *testing.T) {
	s := tinyWith(Workload{Pattern: "mmpp", Tasks: 2000, MMPP: &workload.MMPPConfig{
		Rates: []float64{1, 4}, MeanHold: []float64{100, 50},
	}})
	s.Run.Scale = 0.5
	n, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := n.workloadConfig(n.Run.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TimeSpan != 1500 || cfg.MMPP.MeanHold[0] != 50 || cfg.MMPP.MeanHold[1] != 25 {
		t.Fatalf("mmpp scale threading wrong: span=%v holds=%v", cfg.TimeSpan, cfg.MMPP.MeanHold)
	}

	st := tinyWith(Workload{Pattern: "trace", Trace: &workload.TraceConfig{Arrivals: []float64{100, 2000}}})
	st.Run.Scale = 0.1
	nt, err := st.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	tcfg, err := nt.workloadConfig(nt.Run.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if tcfg.Trace.Arrivals[0] != 10 || tcfg.Trace.Arrivals[1] != 200 {
		t.Fatalf("trace scale threading wrong: %v", tcfg.Trace.Arrivals)
	}
	if nt.Workload.Trace.Arrivals[0] != 100 {
		t.Fatal("scaling mutated the scenario's own trace spec")
	}
}

// TestEngineReportsWorkloadErrors: a scenario that is valid at schema level
// but degenerate at run time (tasks * scale rounds to zero) comes back as
// an error from the engine — the exact class of config that used to panic
// inside a worker goroutine.
func TestEngineReportsWorkloadErrors(t *testing.T) {
	s := tiny()
	s.Workload.Tasks = 5
	s.Run.Scale = 0.01
	if _, err := s.Normalize(); err != nil {
		t.Fatalf("schema-level validation should accept tasks=5: %v", err)
	}
	_, err := NewEngine(1).Run(s)
	if err == nil {
		t.Fatal("degenerate workload ran without error")
	}
	if !strings.Contains(err.Error(), "NumTasks") {
		t.Fatalf("error %q does not carry the workload diagnostic", err)
	}
}

// TestHashNewFieldsSensitivity: the new arrival specs are part of the
// cache key.
func TestHashNewFieldsSensitivity(t *testing.T) {
	base := tinyWith(Workload{Pattern: "diurnal", Tasks: 1000, Rate: &workload.DiurnalConfig{Cycles: 2, Amplitude: 0.5}})
	h := mustHash(t, base)
	moved := tinyWith(Workload{Pattern: "diurnal", Tasks: 1000, Rate: &workload.DiurnalConfig{Cycles: 3, Amplitude: 0.5}})
	if mustHash(t, moved) == h {
		t.Fatal("diurnal cycles did not move the hash")
	}
	// And the legacy spiky hash is untouched by the schema extension: a
	// spiky scenario's normalized form carries no arrival-spec fields.
	spiky, err := tiny().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if spiky.Workload.Rate != nil || spiky.Workload.MMPP != nil || spiky.Workload.Trace != nil {
		t.Fatal("gamma scenario normalized with model specs attached — legacy hashes would change")
	}
}
