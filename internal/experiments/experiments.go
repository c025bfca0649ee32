// Package experiments regenerates every figure of the paper's evaluation
// (Section V) plus the ablation and extension studies listed in DESIGN.md.
// Each figure is a named driver that declares the relevant configuration
// sweep as a set of scenario values (one scenario.Cell per bar or curve
// point), runs N independent workload trials per point (the paper uses 30)
// through the shared scenario.Engine, and reports mean robustness with a
// 95% confidence interval.
//
// Trials are embarrassingly parallel; the engine pools every (cell, trial)
// job of a figure behind one bounded worker pool.
package experiments

import (
	"fmt"
	"runtime"
	"sort"

	"prunesim/internal/core"
	"prunesim/internal/scenario"
	"prunesim/internal/sim"
	"prunesim/internal/stats"
)

// Options tunes how figures are regenerated.
type Options struct {
	// Trials is the number of workload trials per configuration point
	// (paper: 30).
	Trials int
	// Scale uniformly scales task counts and the workload time span, so
	// oversubscription levels are preserved while runs shrink. 1 reproduces
	// the paper's sizes; tests and benchmarks use smaller values.
	Scale float64
	// Seed is the base seed for workload generation and execution sampling.
	Seed uint64
	// Parallelism bounds concurrent trials; 0 means GOMAXPROCS.
	Parallelism int
}

func (o Options) withDefaults() (Options, error) {
	if o.Trials == 0 {
		o.Trials = 30
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Trials < 1 {
		return o, fmt.Errorf("experiments: Trials must be >= 1, got %d", o.Trials)
	}
	if o.Scale < 0.01 || o.Scale > 10 {
		return o, fmt.Errorf("experiments: Scale %v out of [0.01, 10]", o.Scale)
	}
	if o.Parallelism < 1 {
		return o, fmt.Errorf("experiments: Parallelism must be >= 1, got %d", o.Parallelism)
	}
	return o, nil
}

// Row is one reported data point of a figure: a (series, x) cell with its
// robustness summary across trials and optional extra metrics.
type Row struct {
	Series string
	X      string
	// Robustness is the mean ± CI of the paper's metric (% on time).
	Robustness stats.Summary
	// Extra carries figure-specific metrics (e.g. wasted energy fraction).
	Extra map[string]stats.Summary
}

// Point is an (x, y) sample for curve-style figures (Fig. 6).
type Point struct {
	X, Y float64
}

// FigureResult is the regenerated content of one paper figure.
type FigureResult struct {
	Name  string
	Title string
	Rows  []Row
	// Points holds curve data for figures that are not robustness bars.
	Points []Point
	// Expectation documents the shape the paper reports for this figure,
	// for EXPERIMENTS.md comparisons.
	Expectation string
}

// Names lists the available figure drivers in presentation order.
func Names() []string {
	names := make([]string, 0, len(drivers))
	for n := range drivers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run regenerates one figure by name ("6", "7a", ..., "a3").
func Run(name string, opt Options) (*FigureResult, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	d, ok := drivers[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure %q (have %v)", name, Names())
	}
	return d(&harness{opt: opt, eng: scenario.NewEngine(opt.Parallelism)})
}

// harness carries the options and the shared sweep engine across one figure
// regeneration. The engine caches PET matrices, so figures mixing standard
// and homogeneous platforms build each matrix once.
type harness struct {
	opt Options
	eng *scenario.Engine
	// record, when non-nil, receives every sweep's cell results (the
	// results ledger test pins them).
	record func([]scenario.CellResult)
}

// point pins one configuration of a paper sweep in the figures' native
// vocabulary; scenario() lowers it to the declarative form the engine runs.
type point struct {
	homogeneous bool
	immediate   bool
	heuristic   string
	prune       core.Config
	pattern     string // arrival-model name (workload.ModelSpiky, ...)
	numTasks    int    // paper-scale level; Options.Scale is applied by the engine
	slots       int    // machine-queue pending slots; 0 means sim.DefaultSlots
	valued      bool   // draw task values from [1, 5] (value-aware extension)
	// arrival, when non-nil, overrides the whole workload spec — the
	// arrivals sensitivity driver uses it to select diurnal/mmpp curves.
	arrival *scenario.Workload
	// events schedules platform events (failures, joins, degradation,
	// surges) during every trial; times are unscaled, like the span.
	events []scenario.EventSpec
}

// scenario lowers a sweep point to a Scenario with the harness options
// applied.
func (h *harness) scenario(p point) scenario.Scenario {
	wl := scenario.Workload{
		Pattern: p.pattern,
		Tasks:   p.numTasks,
	}
	if p.arrival != nil {
		wl = *p.arrival
	}
	sc := scenario.Scenario{
		Name:     fmt.Sprintf("%s-%s-%d", p.heuristic, wl.Pattern, p.numTasks),
		Workload: wl,
		Platform: scenario.Platform{
			Heuristic: p.heuristic,
			Slots:     p.slots,
			Mode:      "batch",
		},
		Prune: scenario.FromCore(p.prune),
		Run: scenario.Run{
			Trials:      h.opt.Trials,
			Seed:        h.opt.Seed,
			Scale:       h.opt.Scale,
			Parallelism: h.opt.Parallelism,
		},
	}
	if p.homogeneous {
		sc.Platform.Profile = scenario.ProfileHomogeneous
	}
	if p.immediate {
		sc.Platform.Mode = "immediate"
	}
	if p.valued {
		sc.Workload.ValueLo, sc.Workload.ValueHi = 1, 5
	}
	sc.Events = p.events
	return sc
}

// cell tags a sweep point with its (series, x) position in the figure.
func (h *harness) cell(series, x string, p point) scenario.Cell {
	return scenario.Cell{Series: series, X: x, Scenario: h.scenario(p)}
}

// sweep resolves a figure's cells through the shared engine.
func (h *harness) sweep(cells []scenario.Cell) ([]scenario.CellResult, error) {
	res, err := h.eng.Sweep(cells)
	if err == nil && h.record != nil {
		h.record(res)
	}
	return res, err
}

// robustnessRows runs a figure's cells and lowers each outcome to a plain
// robustness row — the common case for bar-style figures without extra
// metrics.
func (h *harness) robustnessRows(cells []scenario.Cell) ([]Row, error) {
	res, err := h.sweep(cells)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(res))
	for i, cr := range res {
		rows[i] = Row{Series: cr.Series, X: cr.X, Robustness: cr.Outcome.Robustness}
	}
	return rows, nil
}

// kLabel renders a paper-style oversubscription label ("15k").
func kLabel(n int) string { return fmt.Sprintf("%dk", n/1000) }

// perTrial extracts one float per trial from an outcome's results.
func perTrial(o *scenario.Outcome, f func(*sim.Result) float64) []float64 {
	xs := make([]float64, len(o.Results))
	for i, r := range o.Results {
		xs[i] = f(r)
	}
	return xs
}
