package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"prunesim/internal/core"
	"prunesim/internal/pet"
	"prunesim/internal/sched"
	"prunesim/internal/sim"
)

// tiny returns a fast, fully specified scenario for engine tests.
func tiny() Scenario {
	s := Default()
	s.Run = Run{Trials: 2, Scale: 0.06, Seed: 42, Parallelism: 2}
	return s
}

func TestNormalizeFillsPaperDefaults(t *testing.T) {
	s, err := Scenario{Workload: Workload{Tasks: 15000}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Workload.Pattern != "spiky" || s.Workload.TimeSpan != 3000 ||
		s.Workload.Spikes != 8 || s.Workload.SpikeFactor != 3 {
		t.Errorf("workload defaults wrong: %+v", s.Workload)
	}
	if s.Workload.BetaLo != 0.8 || s.Workload.BetaHi != 2.5 {
		t.Errorf("beta defaults wrong: [%v, %v]", s.Workload.BetaLo, s.Workload.BetaHi)
	}
	if s.Platform.Profile != ProfileStandard || s.Platform.Machines != 8 || s.Platform.Heuristic != "MM" {
		t.Errorf("platform defaults wrong: %+v", s.Platform)
	}
	if *s.Prune.Threshold != 0.5 || !*s.Prune.Defer || s.Prune.Toggle != "reactive" ||
		s.Prune.DropAlpha != 1 || *s.Prune.Fairness != 0.05 {
		t.Errorf("prune defaults wrong: %+v", s.Prune)
	}
	if s.Run.Trials != 30 || s.Run.Scale != 1 || s.Run.Parallelism < 1 || *s.Run.ExcludeBoundary != 100 {
		t.Errorf("run defaults wrong: %+v", s.Run)
	}
}

func TestNormalizeKeepsExplicitZeros(t *testing.T) {
	zero := 0.0
	off := false
	s := Scenario{
		Workload: Workload{Tasks: 1000},
		Prune:    Prune{Enabled: true, Threshold: &zero, Fairness: &zero, Defer: &off},
	}
	n, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if *n.Prune.Threshold != 0 || *n.Prune.Fairness != 0 || *n.Prune.Defer {
		t.Errorf("explicit zeros overwritten: threshold=%v fairness=%v defer=%v",
			*n.Prune.Threshold, *n.Prune.Fairness, *n.Prune.Defer)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s, err := tiny().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("round trip changed the scenario:\n before %+v\n after  %+v", s, back)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"workload": {"tasks": 100, "tsaks_typo": 5}}`))
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("typo field accepted, err = %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	base := func() Scenario { return tiny() }
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"negative trials", func(s *Scenario) { s.Run.Trials = -3 }, "run.trials"},
		{"zero tasks", func(s *Scenario) { s.Workload.Tasks = 0 }, "workload.tasks"},
		{"negative tasks", func(s *Scenario) { s.Workload.Tasks = -1 }, "workload.tasks"},
		{"unknown heuristic", func(s *Scenario) { s.Platform.Heuristic = "MinMax" }, "heuristic"},
		{"unknown pattern", func(s *Scenario) { s.Workload.Pattern = "sawtooth" }, "pattern"},
		{"unknown profile", func(s *Scenario) { s.Platform.Profile = "hetero" }, "profile"},
		{"unknown toggle", func(s *Scenario) { s.Prune.Toggle = "sometimes" }, "toggle"},
		{"unknown mode", func(s *Scenario) { s.Platform.Mode = "streaming" }, "mode"},
		{"batch heuristic in immediate mode", func(s *Scenario) { s.Platform.Mode = "immediate" }, "batch-mode"},
		{"immediate heuristic in batch mode", func(s *Scenario) {
			s.Platform.Heuristic = "RR"
			s.Platform.Mode = "batch"
		}, "immediate-mode"},
		{"threshold above one", func(s *Scenario) { th := 1.5; s.Prune.Threshold = &th }, "threshold"},
		{"negative fairness", func(s *Scenario) { f := -0.1; s.Prune.Fairness = &f }, "fairness"},
		{"scale out of range", func(s *Scenario) { s.Run.Scale = 100 }, "scale"},
		{"negative machines", func(s *Scenario) { s.Platform.Machines = -2 }, "machines"},
		{"too many machines", func(s *Scenario) { s.Platform.Machines = 1_000_000_000 }, "platform.machines"},
		{"capacity joins past the machine bound", func(s *Scenario) {
			s.Events = []EventSpec{
				{At: 100, Action: ActionJoin, Count: 1 << 62},
				{At: 200, Action: ActionJoin, Count: 1 << 62},
			}
		}, "exceeds"},
		{"too many PET samples", func(s *Scenario) { s.Platform.PET = &pet.Params{Samples: 1 << 40} }, "pet.samples"},
		{"PET bin width too small", func(s *Scenario) { s.Platform.PET = &pet.Params{BinWidth: 1e-9} }, "pet.bin_width"},
		{"PET shape below the floor", func(s *Scenario) { s.Platform.PET = &pet.Params{ShapeLo: 0.09, ShapeHi: 1} }, "pet.shape_lo"},
		{"shape_hi below default shape_lo", func(s *Scenario) { s.Platform.PET = &pet.Params{ShapeHi: 0.5} }, "pet"},
		{"bad value bounds", func(s *Scenario) { s.Workload.ValueLo, s.Workload.ValueHi = 5, 1 }, "value"},
		{"bad spike factor", func(s *Scenario) { s.Workload.SpikeFactor = 0.5 }, "spike"},
		{"negative exclude boundary", func(s *Scenario) { ex := -1; s.Run.ExcludeBoundary = &ex }, "exclude_boundary"},
	}
	for _, tc := range cases {
		s := base()
		tc.mut(&s)
		_, err := s.Normalize()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestConstantPatternIgnoresSpikeFields(t *testing.T) {
	// A constant-arrival scenario may carry leftover (irrelevant) spike
	// settings, e.g. from editing a spiky file; they must not be rejected.
	s := tiny()
	s.Workload.Pattern = "constant"
	s.Workload.SpikeFactor = 1
	if _, err := s.Normalize(); err != nil {
		t.Fatalf("constant pattern rejected over spike fields: %v", err)
	}
}

func TestFromCoreRoundTrip(t *testing.T) {
	for _, cfg := range []core.Config{
		core.DefaultConfig(12),
		core.Disabled(12),
		func() core.Config {
			c := core.DefaultConfig(12)
			c.Threshold = 0
			c.FairnessFactor = 0
			c.DeferEnabled = false
			c.DropMode = core.ToggleAlways
			return c
		}(),
	} {
		s := Scenario{Workload: Workload{Tasks: 1000}, Prune: FromCore(cfg)}
		n, err := s.Normalize()
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		got, err := n.Prune.CoreConfig(12)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Enabled {
			// DropAlpha 0 normalizes to 1; align before comparing.
			if cfg.DropAlpha == 0 {
				cfg.DropAlpha = 1
			}
			if !reflect.DeepEqual(cfg, got) {
				t.Errorf("core config changed through scenario:\n before %+v\n after  %+v", cfg, got)
			}
		} else if got.Enabled {
			t.Errorf("disabled config re-enabled: %+v", got)
		}
	}
}

func TestEngineRunDeterminism(t *testing.T) {
	eng := NewEngine(2)
	a, err := eng.Run(tiny())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(2).Run(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if a.Robustness != b.Robustness {
		t.Errorf("same scenario, different robustness: %+v vs %+v", a.Robustness, b.Robustness)
	}
	if len(a.Results) != 2 {
		t.Fatalf("expected 2 trial results, got %d", len(a.Results))
	}
	if a.Results[0].Robustness == a.Results[1].Robustness {
		t.Errorf("distinct trials produced identical robustness %v — trial seed not applied", a.Results[0].Robustness)
	}
}

func TestEngineSweepMatchesRun(t *testing.T) {
	eng := NewEngine(2)
	s := tiny()
	cells := []Cell{
		{Series: "MM-P", X: "1k", Scenario: s},
		{Series: "MM", X: "1k", Scenario: func() Scenario { c := s; c.Prune = Prune{Enabled: false}; return c }()},
	}
	res, err := eng.Sweep(cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("expected 2 cell results, got %d", len(res))
	}
	solo, err := eng.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Outcome.Robustness != solo.Robustness {
		t.Errorf("sweep cell differs from solo run: %+v vs %+v", res[0].Outcome.Robustness, solo.Robustness)
	}
	if res[0].Series != "MM-P" || res[1].Series != "MM" {
		t.Errorf("cell labels lost: %+v", res)
	}
}

func TestEngineMatrixCaching(t *testing.T) {
	eng := NewEngine(1)
	s, err := tiny().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	m := func(s Scenario) *pet.Matrix {
		m, err := eng.matrices.get(s.Platform)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if m(s) != m(s) {
		t.Error("same scenario built two matrices")
	}
	heavy := s
	heavy.Platform.PET = &pet.Params{ShapeLo: 1, ShapeHi: 3}
	if m(s) == m(heavy) {
		t.Error("different PET params shared one matrix")
	}
}

func TestMachineTypesAssignment(t *testing.T) {
	eng := NewEngine(1)
	s, err := tiny().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	m, err := eng.matrices.get(s.Platform)
	if err != nil {
		t.Fatal(err)
	}
	s.Platform.Machines = 12
	types := s.Platform.MachineTypes(m)
	if len(types) != 12 {
		t.Fatalf("want 12 machines, got %d", len(types))
	}
	if types[8] != 0 || types[11] != 3 {
		t.Errorf("round-robin assignment wrong: %v", types)
	}
	s.Platform.Profile = ProfileHomogeneous
	for _, tt := range s.Platform.MachineTypes(m) {
		if tt != 0 {
			t.Fatalf("homogeneous cluster has nonzero machine type: %v", s.Platform.MachineTypes(m))
		}
	}
}

func TestValueAwareScenario(t *testing.T) {
	s := tiny()
	s.Workload.ValueLo, s.Workload.ValueHi = 1, 5
	s.Prune.ValueAware = true
	s.Prune.ValueRef = 3
	out, err := NewEngine(2).Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if out.WeightedRobustness.Mean == out.Robustness.Mean {
		t.Log("weighted equals plain robustness — possible but unlikely with valued tasks")
	}
	if out.WeightedRobustness.Mean <= 0 {
		t.Errorf("weighted robustness not computed: %+v", out.WeightedRobustness)
	}
}

// FuzzScenarioParse feeds arbitrary documents through Parse: whatever it
// accepts must compile, and the compiled simulator configuration (with the
// per-trial heuristic added) must pass sim.Validate — so a scenario that
// passes the boundary never fails or panics while its trials start.
func FuzzScenarioParse(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, doc := range []string{
		`{"workload": {"tasks": 100}}`,
		`{"workload": {"tasks": 100}, "platform": {"heuristic": "KPB", "machines": 3, "slots": 4}}`,
		`{"workload": {"tasks": 100}, "platform": {"profile": "homogeneous", "pet": {"samples": 50, "bin_width": 2}}}`,
		`{"workload": {"tasks": 100}, "platform": {"mode": "immediate", "heuristic": "MM"}}`,
		`{"workload": {"tasks": 100}, "events": [{"at": 10, "action": "join", "count": 2}]}`,
		`{"workload": {"tasks": 100}, "prune": {"enabled": true, "threshold": 1, "toggle": "always"}, "run": {"exclude_boundary": 0}}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return // rejected at the boundary, which is all that is asked
		}
		c, err := NewEngine(1).compile(s)
		if err != nil {
			t.Fatalf("parsed scenario failed to compile: %v", err)
		}
		cfg := c.sim
		if cfg.Heuristic, _, err = sched.ByName(s.Platform.Heuristic); err != nil {
			t.Fatal(err)
		}
		if err := sim.Validate(c.matrix, cfg); err != nil {
			t.Fatalf("compiled configuration fails sim.Validate: %v", err)
		}
	})
}
