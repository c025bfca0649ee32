package scenario

import (
	"encoding/json"
	"strings"
	"testing"
)

func mustHash(t *testing.T, s Scenario) string {
	t.Helper()
	h, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHashShape(t *testing.T) {
	h := mustHash(t, Default())
	if len(h) != 64 || strings.ToLower(h) != h {
		t.Fatalf("hash %q is not lowercase hex SHA-256", h)
	}
}

// TestHashFieldOrderInvariance parses the same scenario from two JSON
// documents with shuffled key order and expects identical hashes.
func TestHashFieldOrderInvariance(t *testing.T) {
	a, err := Parse([]byte(`{
		"name": "order",
		"workload": {"tasks": 2000, "pattern": "spiky", "spikes": 4},
		"platform": {"heuristic": "MM", "machines": 8},
		"prune": {"enabled": true, "threshold": 0.4},
		"run": {"trials": 5, "seed": 77}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]byte(`{
		"run": {"seed": 77, "trials": 5},
		"prune": {"threshold": 0.4, "enabled": true},
		"platform": {"machines": 8, "heuristic": "MM"},
		"workload": {"spikes": 4, "pattern": "spiky", "tasks": 2000},
		"name": "order"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if ha, hb := mustHash(t, a), mustHash(t, b); ha != hb {
		t.Fatalf("field order changed the hash: %s vs %s", ha, hb)
	}
}

// TestHashDefaultNormalizationInvariance checks that omitting a field and
// spelling out its paper default hash identically, for every defaulted
// field class: plain values, pointer fields and nested defaults.
func TestHashDefaultNormalizationInvariance(t *testing.T) {
	sparse, err := Parse([]byte(`{
		"name": "sparse",
		"workload": {"tasks": 15000},
		"platform": {},
		"prune": {"enabled": true},
		"run": {}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	spelled, err := Parse([]byte(`{
		"name": "spelled-out",
		"description": "same computation, every default written explicitly",
		"workload": {
			"pattern": "spiky", "tasks": 15000, "time_span": 3000,
			"spikes": 8, "spike_factor": 3, "iat_variance_frac": 0.10,
			"beta_lo": 0.8, "beta_hi": 2.5
		},
		"platform": {"profile": "standard", "machines": 8, "heuristic": "MM"},
		"prune": {
			"enabled": true, "threshold": 0.5, "defer": true,
			"toggle": "reactive", "drop_alpha": 1, "fairness": 0.05
		},
		"run": {"trials": 30, "seed": 1592598553, "scale": 1, "exclude_boundary": 100}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if hs, he := mustHash(t, sparse), mustHash(t, spelled); hs != he {
		t.Fatalf("default normalization changed the hash: %s vs %s", hs, he)
	}
}

// TestHashIgnoresCosmeticFields: names, descriptions and the concurrency
// bound label the run without changing its results, so they must not
// change the cache key.
func TestHashIgnoresCosmeticFields(t *testing.T) {
	base := Default()
	h := mustHash(t, base)

	renamed := base
	renamed.Name = "something-else"
	renamed.Description = "new docs"
	if got := mustHash(t, renamed); got != h {
		t.Errorf("name/description changed the hash")
	}

	par := base
	par.Run.Parallelism = 3
	if got := mustHash(t, par); got != h {
		t.Errorf("run.parallelism changed the hash")
	}
}

// TestHashSensitivity: every result-affecting knob must move the hash.
func TestHashSensitivity(t *testing.T) {
	base := Default()
	h := mustHash(t, base)
	seen := map[string]string{"base": h}

	mutations := map[string]func(*Scenario){
		"workload.tasks":    func(s *Scenario) { s.Workload.Tasks = 20000 },
		"workload.pattern":  func(s *Scenario) { s.Workload.Pattern = "constant" },
		"platform.machines": func(s *Scenario) { s.Platform.Machines = 16 },
		"platform.profile":  func(s *Scenario) { s.Platform.Profile = ProfileHomogeneous },
		"prune.enabled":     func(s *Scenario) { s.Prune.Enabled = false },
		"prune.threshold":   func(s *Scenario) { th := 0.7; s.Prune.Threshold = &th },
		"run.trials":        func(s *Scenario) { s.Run.Trials = 3 },
		"run.seed":          func(s *Scenario) { s.Run.Seed = 99 },
		"run.scale":         func(s *Scenario) { s.Run.Scale = 0.5 },
	}
	for field, mutate := range mutations {
		s := base
		mutate(&s)
		got := mustHash(t, s)
		if got == h {
			t.Errorf("%s did not change the hash", field)
		}
		for prev, ph := range seen {
			if ph == got {
				t.Errorf("%s and %s collide", field, prev)
			}
		}
		seen[field] = got
	}
}

// TestHashInvalidScenario: a scenario that fails validation cannot be
// hashed (the cache must never key on garbage).
func TestHashInvalidScenario(t *testing.T) {
	s := Default()
	s.Workload.Tasks = -1
	if _, err := s.Hash(); err == nil {
		t.Fatal("invalid scenario hashed without error")
	}
}

// TestRunWithProgress: the progress callback fires once per trial with
// monotonically increasing Done and the final call at Done == Total.
func TestRunWithProgress(t *testing.T) {
	s := Default()
	s.Run.Trials = 4
	s.Run.Scale = 0.02
	var got []TrialProgress
	out, err := NewEngine(2).RunWithProgress(s, func(p TrialProgress) {
		got = append(got, p) // serialized by the engine; no lock needed
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("progress calls = %d, want 4", len(got))
	}
	seenTrial := map[int]bool{}
	for i, p := range got {
		if p.Done != i+1 || p.Total != 4 {
			t.Errorf("call %d: Done=%d Total=%d, want Done=%d Total=4", i, p.Done, p.Total, i+1)
		}
		if seenTrial[p.Trial] {
			t.Errorf("trial %d reported twice", p.Trial)
		}
		seenTrial[p.Trial] = true
		if p.Robustness != out.Results[p.Trial].Robustness {
			t.Errorf("trial %d progress robustness %v != result %v", p.Trial, p.Robustness, out.Results[p.Trial].Robustness)
		}
	}
}

// TestTrialProgressJSON pins the bytes of the SSE "progress" payload:
// field names, order and flattening of the outcome breakdown.
func TestTrialProgressJSON(t *testing.T) {
	var p TrialProgress
	p.Trial, p.Done, p.Total = 1, 2, 3
	p.Robustness, p.DurationSeconds = 70.5, 0.25
	p.Counted, p.OnTime, p.Late = 100, 70, 10
	p.DroppedReactive, p.DroppedProactive, p.Unfinished, p.Deferrals = 9, 6, 5, 3
	got, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"trial":1,"done":2,"total":3,"robustness":70.5,"duration_seconds":0.25,` +
		`"counted":100,"on_time":70,"late":10,"dropped_reactive":9,"dropped_proactive":6,"unfinished":5,"deferrals":3}`
	if string(got) != want {
		t.Fatalf("progress payload\n got %s\nwant %s", got, want)
	}
}
