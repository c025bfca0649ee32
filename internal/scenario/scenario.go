// Package scenario turns everything a prunesim experiment hard-codes — the
// workload shape, the platform under test, the pruning configuration and the
// trial settings — into one declarative, JSON-encodable Scenario value, plus
// an Engine that resolves scenarios and runs their trials on a bounded
// worker pool.
//
// A Scenario is the unit every front end shares: `cmd/hcsim --scenario
// file.json` runs one, `internal/experiments` expresses each paper figure as
// a set of them (one Cell per bar or curve point), and future subsystems
// (sharding, result caching, alternative backends) plug in at the same seam.
// The full field/default/unit reference lives in DESIGN.md; ready-made
// scenario files ship under examples/scenarios/.
//
// The zero-value ambiguity of JSON is handled with a small number of pointer
// fields: settings whose zero value is meaningful and different from the
// paper default (pruning threshold 0, fairness 0, deferring off, boundary
// exclusion 0) are pointers, so "omitted" and "explicitly zero" stay
// distinguishable. Everything else defaults on Normalize.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"prunesim/internal/core"
	"prunesim/internal/pet"
	"prunesim/internal/workload"
)

// Platform profile names accepted by Platform.Profile.
const (
	// ProfileStandard is the paper's inconsistently heterogeneous
	// 12-benchmark x 8-machine PET matrix.
	ProfileStandard = "standard"
	// ProfileHomogeneous is the single-machine-type matrix of the paper's
	// homogeneous-system experiments.
	ProfileHomogeneous = "homogeneous"
)

// Scenario is one fully described simulation study: a workload shape, a
// platform (machines + scheduling policy), a pruning configuration and the
// trial/seed/parallelism settings. It is the declarative unit the sweep
// engine, the CLIs and the figure drivers all consume.
type Scenario struct {
	// Name identifies the scenario in output and result files.
	Name string `json:"name"`
	// Description is free-form documentation shown by the CLIs.
	Description string `json:"description,omitempty"`
	// Workload names the task stream to generate.
	Workload Workload `json:"workload"`
	// Platform names the system under test.
	Platform Platform `json:"platform"`
	// Prune configures the probabilistic pruning mechanism.
	Prune Prune `json:"prune"`
	// Events schedules platform events — machine failures, joins,
	// degradations, maintenance windows and arrival surges — at fixed
	// simulation times (see events.go). Omitted or empty means a static
	// platform: trial outcomes are bitwise-identical to a scenario without
	// the field, and the content hash is unchanged.
	Events []EventSpec `json:"events,omitempty"`
	// Run holds trial, seed, scale and parallelism settings.
	Run Run `json:"run"`
}

// Workload declares the synthetic task stream of a scenario (see
// internal/workload for the generation recipe and the arrival models).
type Workload struct {
	// Pattern names the arrival model: "spiky" (paper default), "constant",
	// "poisson", "diurnal" (inhomogeneous Poisson over a declarative rate
	// curve), "mmpp" (Markov-modulated Poisson) or "trace" (replay explicit
	// timestamps). Empty selects "spiky".
	Pattern string `json:"pattern,omitempty"`
	// Tasks is the expected task count across all types — the paper's
	// oversubscription knob (15000, 20000, 25000). Required except for the
	// trace model, whose task count is the trace length.
	Tasks int `json:"tasks,omitempty"`
	// TimeSpan is the workload duration in simulation time units
	// (default 3000, the paper's span).
	TimeSpan float64 `json:"time_span,omitempty"`
	// Spikes is the number of spike periods across the span (spiky
	// pattern only; default 8).
	Spikes int `json:"spikes,omitempty"`
	// SpikeFactor multiplies the base arrival rate during spikes
	// (default 3, the paper's burst height).
	SpikeFactor float64 `json:"spike_factor,omitempty"`
	// IATVarianceFrac is the Gamma inter-arrival variance as a fraction
	// of the mean (default 0.10).
	IATVarianceFrac float64 `json:"iat_variance_frac,omitempty"`
	// BetaLo and BetaHi bound the per-task uniform deadline-slack
	// multiplier of Eq. 4. Both zero selects the paper's [0.8, 2.5].
	BetaLo float64 `json:"beta_lo,omitempty"`
	BetaHi float64 `json:"beta_hi,omitempty"`
	// ValueLo and ValueHi bound the per-task uniform value draw for the
	// value-aware extension (mixed SLA classes). Both zero means every
	// task has unit value.
	ValueLo float64 `json:"value_lo,omitempty"`
	ValueHi float64 `json:"value_hi,omitempty"`
	// Rate declares the diurnal model's relative rate curve (pattern
	// "diurnal" only), normalized so the expected task count still matches
	// tasks. Omitted selects one sinusoidal cycle at amplitude 0.8.
	Rate *workload.DiurnalConfig `json:"rate,omitempty"`
	// MMPP declares the Markov-modulated process (pattern "mmpp" only).
	// run.scale shrinks its mean_hold with the span. Omitted selects a
	// two-state calm/burst chain at 1x/8x the base rate with mean holds of
	// 1/8 and 1/32 of the span.
	MMPP *workload.MMPPConfig `json:"mmpp,omitempty"`
	// Trace declares the arrivals to replay (pattern "trace" only), from
	// exactly one source: inline arrivals, or a path to a CSV of `time` or
	// `time,type` rows. Only Load resolves the path, relative to the
	// scenario file; Parse and inline service submissions need inline
	// arrivals, as the daemon does not read files on behalf of clients.
	// run.scale compresses the arrivals with the span.
	Trace *workload.TraceConfig `json:"trace,omitempty"`
}

// Platform declares the system under test: its heterogeneity profile,
// cluster size, allocation mode and mapping heuristic.
type Platform struct {
	// Profile selects the PET matrix: "standard" (default) or
	// "homogeneous".
	Profile string `json:"profile,omitempty"`
	// Machines is the cluster size (default 8, the paper's testbed). On
	// the standard profile, machines beyond the eight matrix columns
	// cycle through the machine types round-robin.
	Machines int `json:"machines,omitempty"`
	// Mode is the allocation style: "batch" or "immediate". Empty infers
	// the mode from the heuristic.
	Mode string `json:"mode,omitempty"`
	// Heuristic is a mapping-heuristic name from sched.Names() (default
	// "MM").
	Heuristic string `json:"heuristic,omitempty"`
	// Slots caps pending tasks per machine queue in batch mode
	// (default 2).
	Slots int `json:"slots,omitempty"`
	// PET overrides PET-matrix generation parameters (heavy-tail
	// profiles, custom bin widths). Nil keeps the paper's parameters, and
	// so does each zero-valued field.
	PET *pet.Params `json:"pet,omitempty"`
	// PCTTailEps, in [0, 1), enables ε-conservative completion-time tail
	// compression: each chain convolution folds at most this much
	// probability mass from the distribution tail into a final catch-all
	// bin, bounding per-task PCT support on long queues. 0 (default) keeps
	// exact distributions. Success chances only ever shrink under
	// compression, so pruning stays conservative. Not scaled by run.scale.
	PCTTailEps float64 `json:"pct_tail_eps,omitempty"`
}

// Prune declares the pruning-mechanism configuration. Pointer fields
// distinguish "omitted — use the paper default" from "explicitly zero".
type Prune struct {
	// Enabled is the master switch; false gives the unpruned baseline.
	Enabled bool `json:"enabled"`
	// Threshold is the pruning threshold in [0, 1] (default 0.5): tasks
	// whose chance of success is at or below it are pruned.
	Threshold *float64 `json:"threshold,omitempty"`
	// Defer enables the deferring operation (default true; batch mode
	// only).
	Defer *bool `json:"defer,omitempty"`
	// Toggle selects when proactive dropping engages: "never", "always"
	// or "reactive" (default).
	Toggle string `json:"toggle,omitempty"`
	// DropAlpha is the reactive Toggle's miss threshold (default 1).
	DropAlpha int `json:"drop_alpha,omitempty"`
	// Fairness is the per-type sufferage adjustment constant c
	// (default 0.05; 0 disables fairness).
	Fairness *float64 `json:"fairness,omitempty"`
	// ValueAware scales each task's threshold by ValueRef/value (the
	// Section VII cost-aware extension).
	ValueAware bool `json:"value_aware,omitempty"`
	// ValueRef is the reference task value the scaling centres on
	// (default 1 when ValueAware).
	ValueRef float64 `json:"value_ref,omitempty"`
}

// Run holds the trial/seed/parallelism settings of a scenario.
type Run struct {
	// Trials is the number of independent workload trials (default 30,
	// the paper's count).
	Trials int `json:"trials,omitempty"`
	// Seed is the base seed for workload generation; execution-time
	// sampling derives from it. A (Seed, trial) pair pins a trial
	// exactly. Default workload.DefaultConfig's seed, 0x5eed2019.
	Seed uint64 `json:"seed,omitempty"`
	// Scale uniformly shrinks task counts and the time span, preserving
	// the oversubscription level (default 1 = paper size; accepted range
	// [0.01, 10]).
	Scale float64 `json:"scale,omitempty"`
	// Parallelism bounds concurrent trials (default GOMAXPROCS).
	Parallelism int `json:"parallelism,omitempty"`
	// ExcludeBoundary drops the first and last N tasks from statistics
	// to measure the oversubscribed steady state (default 100, clamped
	// for tiny workloads).
	ExcludeBoundary *int `json:"exclude_boundary,omitempty"`
}

// Default returns a ready-to-run Scenario with every field at the paper's
// defaults: a spiky 15K-task workload on the standard 8-machine platform
// under Min-Min with full pruning.
func Default() Scenario {
	return Scenario{
		Name:     "default",
		Workload: Workload{Pattern: "spiky", Tasks: 15000},
		Platform: Platform{Profile: ProfileStandard, Heuristic: "MM"},
		Prune:    Prune{Enabled: true},
	}
}

// FromCore converts a core pruning configuration into its declarative form.
// It is the bridge the figure drivers use: sweeps keep building core.Config
// values and express each configuration point as a Scenario.
func FromCore(c core.Config) Prune {
	p := Prune{
		Enabled:    c.Enabled,
		ValueAware: c.ValueAware,
		ValueRef:   c.ValueRef,
		DropAlpha:  c.DropAlpha,
	}
	th, fair, def := c.Threshold, c.FairnessFactor, c.DeferEnabled
	p.Threshold, p.Fairness, p.Defer = &th, &fair, &def
	p.Toggle = c.DropMode.String()
	return p
}

// Load reads, parses and normalizes one scenario file. Unknown JSON fields
// are errors, so typos in hand-written files surface immediately.
func Load(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Decode(data)
	if err == nil {
		if s.Name == "" {
			s.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		}
		err = s.resolveTrace(filepath.Dir(path))
	}
	if err == nil {
		s, err = s.Normalize()
	}
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// Parse decodes and normalizes a JSON scenario document.
func Parse(data []byte) (Scenario, error) {
	s, err := Decode(data)
	if err != nil {
		return Scenario{}, err
	}
	return s.Normalize()
}

// resolveTrace loads a trace CSV referenced by workload.trace.path into
// inline arrivals, relative to the scenario file's directory. Only Load
// calls this; parsed documents (service submissions) must inline their
// arrivals, so the daemon never reads files on a client's behalf. The
// loaded timestamps take part in the content hash — editing the CSV
// changes the hash, keeping the result cache honest.
func (s *Scenario) resolveTrace(dir string) error {
	tr := s.Workload.Trace
	if tr == nil || tr.Path == "" || len(tr.Arrivals) > 0 {
		return nil
	}
	path := tr.Path
	if !filepath.IsAbs(path) {
		path = filepath.Join(dir, path)
	}
	arrivals, types, err := workload.LoadTraceCSV(path)
	if err != nil {
		return err
	}
	tr.Arrivals, tr.Types = arrivals, types
	return nil
}

// Decode unmarshals a scenario document, rejecting unknown fields, and
// leaves it unnormalized: Parse is Decode plus Normalize.
func Decode(data []byte) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// Normalize fills paper defaults into omitted fields and validates the
// result. It returns the completed copy; the receiver is unchanged.
func (s Scenario) Normalize() (Scenario, error) {
	// Workload and seed defaults are workload.DefaultConfig's.
	def := workload.DefaultConfig(0)
	w := &s.Workload
	if w.Pattern == "" {
		w.Pattern = def.Model
	}
	if w.TimeSpan == 0 {
		w.TimeSpan = def.TimeSpan
	}
	if w.Spikes == 0 {
		w.Spikes = def.NumSpikes
	}
	if w.SpikeFactor == 0 {
		w.SpikeFactor = def.SpikeFactor
	}
	if w.IATVarianceFrac == 0 {
		w.IATVarianceFrac = def.IATVarianceFrac
	}
	if w.BetaLo == 0 && w.BetaHi == 0 {
		w.BetaLo, w.BetaHi = def.BetaLo, def.BetaHi
	}
	switch w.Pattern {
	case workload.ModelDiurnal:
		if w.Rate == nil {
			w.Rate = &workload.DiurnalConfig{Cycles: workload.DefaultDiurnalCycles, Amplitude: workload.DefaultDiurnalAmplitude}
		} else if len(w.Rate.Pieces) == 0 && w.Rate.Cycles == 0 {
			// Clone before defaulting: Normalize documents "the receiver
			// is unchanged", and the Rate pointer may be shared between
			// scenario values normalized concurrently.
			r := *w.Rate
			r.Cycles = workload.DefaultDiurnalCycles
			w.Rate = &r
		}
	case workload.ModelMMPP:
		if w.MMPP == nil {
			w.MMPP = &workload.MMPPConfig{
				Rates: []float64{1, workload.DefaultMMPPBurstRate},
				MeanHold: []float64{
					w.TimeSpan / workload.DefaultMMPPHoldDivisors[0],
					w.TimeSpan / workload.DefaultMMPPHoldDivisors[1],
				},
			}
		}
	}

	// Platform and prune defaults (shared with the admission layer, which
	// registers sessions from the same spec shapes — see platform.go).
	s.Platform = s.Platform.WithDefaults()
	s.Prune = s.Prune.WithDefaults()

	// Run defaults.
	r := &s.Run
	if r.Trials == 0 {
		r.Trials = 30
	}
	if r.Seed == 0 {
		r.Seed = def.Seed
	}
	if r.Scale == 0 {
		r.Scale = 1
	}
	if r.Parallelism == 0 {
		r.Parallelism = runtime.GOMAXPROCS(0)
	}
	if r.ExcludeBoundary == nil {
		ex := 100
		r.ExcludeBoundary = &ex
	}

	return s, s.validate()
}

// validate checks a defaulted scenario for self-consistency.
func (s Scenario) validate() error {
	w, p, pr, r := s.Workload, s.Platform, s.Prune, s.Run
	model, err := w.model()
	if err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	switch {
	case model != workload.ModelTrace && w.Tasks <= 0:
		return fmt.Errorf("scenario %q: workload.tasks must be positive, got %d", s.Name, w.Tasks)
	case w.TimeSpan <= 0:
		return fmt.Errorf("scenario %q: workload.time_span must be positive, got %v", s.Name, w.TimeSpan)
	case model == workload.ModelSpiky && (w.Spikes <= 0 || w.SpikeFactor <= 1):
		return fmt.Errorf("scenario %q: spiky arrivals need spikes > 0 and spike_factor > 1, got %d, %v",
			s.Name, w.Spikes, w.SpikeFactor)
	case w.IATVarianceFrac <= 0:
		return fmt.Errorf("scenario %q: workload.iat_variance_frac must be positive, got %v", s.Name, w.IATVarianceFrac)
	case w.BetaHi < w.BetaLo || w.BetaLo < 0:
		return fmt.Errorf("scenario %q: workload beta bounds need 0 <= beta_lo <= beta_hi, got [%v, %v]",
			s.Name, w.BetaLo, w.BetaHi)
	case w.ValueHi != 0 && (w.ValueLo <= 0 || w.ValueHi < w.ValueLo):
		return fmt.Errorf("scenario %q: task values need 0 < value_lo <= value_hi, got [%v, %v]",
			s.Name, w.ValueLo, w.ValueHi)
	}
	// Model-specific sub-configs only make sense with their own pattern —
	// a leftover spec under the wrong pattern is a silent no-op the author
	// almost certainly did not intend.
	switch {
	case w.Rate != nil && model != workload.ModelDiurnal:
		return fmt.Errorf("scenario %q: workload.rate applies only to pattern \"diurnal\", not %q", s.Name, model)
	case w.MMPP != nil && model != workload.ModelMMPP:
		return fmt.Errorf("scenario %q: workload.mmpp applies only to pattern \"mmpp\", not %q", s.Name, model)
	case w.Trace != nil && model != workload.ModelTrace:
		return fmt.Errorf("scenario %q: workload.trace applies only to pattern \"trace\", not %q", s.Name, model)
	case model == workload.ModelTrace && w.Trace == nil:
		return fmt.Errorf("scenario %q: pattern \"trace\" needs a workload.trace spec", s.Name)
	case model == workload.ModelTrace && len(w.Trace.Arrivals) == 0 && w.Trace.Path != "":
		return fmt.Errorf("scenario %q: workload.trace.path is resolved when loading a scenario file; inline submissions must carry workload.trace.arrivals", s.Name)
	case model == workload.ModelDiurnal && len(w.Rate.Pieces) == 0 && w.Rate.Amplitude == 0:
		// JSON cannot distinguish an omitted amplitude from an explicit 0,
		// and a 0-amplitude sinusoid is just a Poisson process — the
		// diurnal knob would be a silent no-op. (Omitting workload.rate
		// entirely selects the default 0.8-amplitude cycle.)
		return fmt.Errorf("scenario %q: workload.rate has amplitude 0 (a flat curve): set amplitude or pieces, omit workload.rate for the default curve, or use pattern \"poisson\" for a flat rate", s.Name)
	}
	// Full arrival-model validation (the scenario is lowered to an
	// unscaled workload.Config and compiled): whatever this catches beyond
	// the named checks above still fails here, at schema level, instead of
	// inside a worker.
	wcfg, err := s.workloadConfig(1)
	if err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := workload.Validate(wcfg, len(pet.TaskTypeNames)); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}

	if err := p.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	// Compile the events block at scale 1 so schedule errors (bad actions,
	// out-of-range times, state-machine violations, invalid surge windows)
	// fail at schema level rather than inside a trial worker.
	if _, windows, err := s.compileEvents(1, s.machineTypeCount()); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	} else if len(windows) > 0 {
		if _, err := workload.WithRateWindows(nil, windows, wcfg, len(pet.TaskTypeNames)); err != nil {
			return fmt.Errorf("scenario %q: events: %w", s.Name, err)
		}
	}

	if _, err := pr.toggleMode(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if th := *pr.Threshold; th < 0 || th > 1 {
		return fmt.Errorf("scenario %q: prune.threshold must be in [0, 1], got %v", s.Name, th)
	}
	if *pr.Fairness < 0 {
		return fmt.Errorf("scenario %q: prune.fairness must be non-negative, got %v", s.Name, *pr.Fairness)
	}
	if pr.DropAlpha < 1 {
		return fmt.Errorf("scenario %q: prune.drop_alpha must be >= 1, got %d", s.Name, pr.DropAlpha)
	}

	switch {
	case r.Trials < 1:
		return fmt.Errorf("scenario %q: run.trials must be >= 1, got %d", s.Name, r.Trials)
	case r.Scale < 0.01 || r.Scale > 10:
		return fmt.Errorf("scenario %q: run.scale %v out of [0.01, 10]", s.Name, r.Scale)
	case r.Parallelism < 1:
		return fmt.Errorf("scenario %q: run.parallelism must be >= 1, got %d", s.Name, r.Parallelism)
	case *r.ExcludeBoundary < 0:
		return fmt.Errorf("scenario %q: run.exclude_boundary must be non-negative, got %d", s.Name, *r.ExcludeBoundary)
	}
	return nil
}

// model resolves the workload pattern name to an arrival-model name.
func (w Workload) model() (string, error) {
	name := w.Pattern
	if name == "" {
		name = workload.ModelSpiky
	}
	for _, m := range workload.ModelNames() {
		if name == m {
			return name, nil
		}
	}
	return "", fmt.Errorf("unknown workload.pattern %q (want one of %v)", w.Pattern, workload.ModelNames())
}

// toggleMode resolves the dropping-toggle name.
func (p Prune) toggleMode() (core.ToggleMode, error) {
	m, err := core.ParseToggleMode(p.Toggle)
	if err != nil {
		return 0, fmt.Errorf("prune.toggle: %w", err)
	}
	return m, nil
}

// workloadConfig lowers the workload spec to the generator configuration
// (trial 0) with the given scale applied: task counts, the time span, MMPP
// sojourn times and trace timestamps all shrink together, so the
// oversubscription level and burst structure are preserved. Trials run at
// Run.Scale; schema validation checks scale 1. (A valid scenario whose
// tasks*scale rounds to zero fails its trials with an error, which the
// serving layer reports as a failed job.)
func (s Scenario) workloadConfig(scale float64) (workload.Config, error) {
	model, err := s.Workload.model()
	if err != nil {
		return workload.Config{}, err
	}
	cfg := workload.Config{
		Model:           model,
		NumTasks:        int(float64(s.Workload.Tasks) * scale),
		TimeSpan:        s.Workload.TimeSpan * scale,
		NumSpikes:       s.Workload.Spikes,
		SpikeFactor:     s.Workload.SpikeFactor,
		IATVarianceFrac: s.Workload.IATVarianceFrac,
		BetaLo:          s.Workload.BetaLo,
		BetaHi:          s.Workload.BetaHi,
		ValueLo:         s.Workload.ValueLo,
		ValueHi:         s.Workload.ValueHi,
		Seed:            s.Run.Seed,
	}
	// The arrival models only read their sub-configs, so unscaled slices
	// are shared with the scenario.
	switch model {
	case workload.ModelDiurnal:
		if r := s.Workload.Rate; r != nil {
			cfg.Diurnal = *r
		}
	case workload.ModelMMPP:
		if m := s.Workload.MMPP; m != nil {
			cfg.MMPP = workload.MMPPConfig{Rates: m.Rates, MeanHold: scaled(m.MeanHold, scale)}
		}
	case workload.ModelTrace:
		if tr := s.Workload.Trace; tr != nil {
			cfg.Trace = workload.TraceConfig{Path: tr.Path, Arrivals: scaled(tr.Arrivals, scale), Types: tr.Types}
		}
	}
	return cfg, nil
}

// scaled returns a new slice of xs times scale.
func scaled(xs []float64, scale float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * scale
	}
	return out
}
