package scenario

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"prunesim/internal/clock"
	"prunesim/internal/pet"
	"prunesim/internal/sched"
	"prunesim/internal/sim"
	"prunesim/internal/stats"
	"prunesim/internal/timeline"
	"prunesim/internal/workload"
)

// Outcome is the result of running one scenario: the per-trial simulation
// results plus summaries of the headline metrics.
type Outcome struct {
	// Scenario is the normalized scenario that produced the outcome.
	Scenario Scenario `json:"scenario"`
	// Robustness summarizes the paper's metric (% of counted tasks on
	// time) across trials.
	Robustness stats.Summary `json:"robustness"`
	// WeightedRobustness summarizes the value-weighted variant; with
	// unit task values it equals Robustness.
	WeightedRobustness stats.Summary `json:"weighted_robustness"`
	// Results holds one simulation result per trial, in trial order.
	Results []*sim.Result `json:"results"`
}

// Cell is one configuration point of a sweep: a scenario tagged with the
// series and x labels under which its outcome is reported. Figure drivers
// express each bar or curve point as a Cell.
type Cell struct {
	// Series and X locate the cell in a figure (series = legend entry,
	// X = axis category).
	Series string `json:"series"`
	X      string `json:"x"`
	// Scenario is the configuration to run.
	Scenario Scenario `json:"scenario"`
}

// CellResult pairs a cell's labels with its outcome.
type CellResult struct {
	Series  string   `json:"series"`
	X       string   `json:"x"`
	Outcome *Outcome `json:"outcome"`
}

// Engine resolves and runs scenarios. It caches generated PET matrices
// (keyed by profile and generation parameters, bounded by entry count and
// retained bytes; see Lower), so sweeps spanning many cells pay matrix
// construction once. An Engine is safe for concurrent use.
type Engine struct {
	// Parallelism bounds concurrent trials per Run or Sweep call; 0 falls
	// back to the largest run.parallelism among the scenarios run (for
	// Run, the scenario's own setting).
	Parallelism int
	// NewClock, when non-nil, supplies each trial's simulation clock (see
	// internal/clock); it is called once per trial because a wall-paced
	// clock anchors its epoch on first use and must not be shared. Nil —
	// the default — runs on pure simulated time. Pacing many parallel
	// trials against the wall clock rarely makes sense, so callers
	// supplying real clocks usually also set Parallelism 1.
	NewClock func() clock.Clock

	matrices matrixCache
}

// NewEngine returns an Engine with the given trial parallelism bound (0 =
// each scenario's run.parallelism).
func NewEngine(parallelism int) *Engine {
	return &Engine{Parallelism: parallelism}
}

// TrialProgress reports one finished trial during RunWithProgress. Done
// counts trials finished so far (including this one), so Done == Total
// marks the last report of a run. Beyond the trial's robustness it carries
// the full outcome breakdown and the trial's wall duration, so live
// consumers (the serving layer's per-job timeline, hcsim's progress line)
// can aggregate rates without waiting for the final Outcome.
type TrialProgress struct {
	// Trial is the index of the trial that just finished.
	Trial int `json:"trial"`
	// Done and Total count finished and scheduled trials.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Robustness is the finished trial's robustness (% on time).
	Robustness float64 `json:"robustness"`
	// DurationSeconds is the trial's wall-clock run time.
	DurationSeconds float64 `json:"duration_seconds"`
	// Counts is the trial's outcome breakdown; its fields flatten into
	// the JSON object.
	timeline.Counts
}

// Run normalizes and executes one scenario, running its trials on a bounded
// worker pool.
func (e *Engine) Run(s Scenario) (*Outcome, error) {
	return e.RunWithProgress(s, nil)
}

// RunWithProgress is Run with a live per-trial progress callback: onTrial,
// when non-nil, is invoked once per finished trial. Calls are serialized
// (never concurrent) and made from worker goroutines, so the callback must
// not block for long; it must not call back into the Engine.
func (e *Engine) RunWithProgress(s Scenario, onTrial func(TrialProgress)) (*Outcome, error) {
	s, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	c, err := e.compile(s)
	if err != nil {
		return nil, err
	}
	out, err := e.run([]*compiled{c}, onTrial)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Sweep executes a set of cells, pooling all (cell, trial) jobs behind one
// parallelism bound so fast cells do not leave workers idle while slow ones
// finish. Cells are normalized and compiled up front; the first invalid
// cell aborts the sweep before any trial runs.
func (e *Engine) Sweep(cells []Cell) ([]CellResult, error) {
	cs := make([]*compiled, len(cells))
	for i, cell := range cells {
		s, err := cell.Scenario.Normalize()
		if err == nil {
			cs[i], err = e.compile(s)
		}
		if err != nil {
			return nil, fmt.Errorf("cell %s|%s: %w", cell.Series, cell.X, err)
		}
	}
	outs, err := e.run(cs, nil)
	if err != nil {
		return nil, err
	}
	res := make([]CellResult, len(cells))
	for i, cell := range cells {
		res[i] = CellResult{Series: cell.Series, X: cell.X, Outcome: outs[i]}
	}
	return res, nil
}

// run executes every trial of the compiled scenarios on one worker pool
// and folds each scenario's results into its Outcome. onTrial, when
// non-nil, is called under a lock after each finished trial, with Done and
// Total counted over all trials of the call.
func (e *Engine) run(cs []*compiled, onTrial func(TrialProgress)) ([]*Outcome, error) {
	type job struct{ cell, trial int }
	var jobs []job
	par := 0
	results := make([][]*sim.Result, len(cs))
	for i, c := range cs {
		par = max(par, c.s.Run.Parallelism)
		results[i] = make([]*sim.Result, c.s.Run.Trials)
		for t := range results[i] {
			jobs = append(jobs, job{cell: i, trial: t})
		}
	}
	if e.Parallelism > 0 {
		par = e.Parallelism
	}
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	var progressMu sync.Mutex
	done := 0
	for j, jb := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(j int, jb job) {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			r, err := e.runTrial(cs[jb.cell], jb.trial)
			results[jb.cell][jb.trial], errs[j] = r, err
			if onTrial == nil || err != nil {
				return
			}
			elapsed := time.Since(start).Seconds()
			progressMu.Lock()
			defer progressMu.Unlock()
			done++
			onTrial(TrialProgress{
				Trial:           jb.trial,
				Done:            done,
				Total:           len(jobs),
				Robustness:      r.Robustness,
				DurationSeconds: elapsed,
				Counts:          timeline.ResultCounts(r),
			})
		}(j, jb)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	outs := make([]*Outcome, len(cs))
	for i, c := range cs {
		outs[i] = summarize(c.s, results[i])
	}
	return outs, nil
}

// compiled is a normalized scenario's trial-independent state: the cached
// PET matrix, the scaled workload configuration, the arrival model
// compiled from it and the lowered simulator configuration. Trials only
// vary the RNG streams, so the engine pays validation and lowering (for
// traces: copying, sorting and binning the arrival list) once per
// scenario, not once per trial.
type compiled struct {
	s      Scenario
	matrix *pet.Matrix
	wcfg   workload.Config // Trial left at 0; set per trial
	model  workload.ArrivalModel
	// sim has every field but the per-trial Heuristic and Clock; its
	// slices (machine types, events with Run.Scale applied) are shared
	// read-only by trials.
	sim sim.Config
}

// compile builds a normalized scenario's trial-independent state. Workload
// configuration errors surface here — before any trial goroutine starts.
func (e *Engine) compile(s Scenario) (*compiled, error) {
	low, err := e.Lower(s.Platform, s.Prune)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	matrix := low.Matrix
	wcfg, err := s.workloadConfig(s.Run.Scale)
	if err != nil {
		return nil, err
	}
	model, err := workload.NewArrivalModel(wcfg, matrix.NumTaskTypes())
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	events, windows, err := s.compileEvents(s.Run.Scale, matrix.NumMachineTypes())
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	model, err = workload.WithRateWindows(model, windows, wcfg, matrix.NumTaskTypes())
	if err != nil {
		return nil, fmt.Errorf("scenario %q: events: %w", s.Name, err)
	}
	// Normalize checked that an explicit platform.mode matches the
	// heuristic's kind, so the kind alone decides the mode.
	_, imm, err := sched.ByName(s.Platform.Heuristic)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	mode := sim.BatchMode
	if imm {
		mode = sim.ImmediateMode
	}
	return &compiled{s: s, matrix: matrix, wcfg: wcfg, model: model, sim: sim.Config{
		Mode:         mode,
		MachineTypes: low.MachineTypes,
		Slots:        s.Platform.Slots,
		Prune:        low.Prune,
		Seed:         s.Run.Seed ^ 0xabcd,
		// A stream's task total is known only when it drains, so the
		// simulator clamps a boundary too large for it (n <=
		// 2*exclude+1 excludes n/4 at each end).
		ExcludeBoundary:     *s.Run.ExcludeBoundary,
		AutoExcludeBoundary: true,
		TailEps:             s.Platform.PCTTailEps,
		Events:              events,
	}}, nil
}

// runTrial executes one trial of a compiled scenario. A panic anywhere
// below (a model bug, a pathological config that slipped past validation)
// is converted to an error here, on the worker goroutine that would
// otherwise crash the whole process — the serving layer turns it into a
// failed job and stays up.
func (e *Engine) runTrial(c *compiled, trial int) (res *sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("scenario %q: trial %d panicked: %v", c.s.Name, trial, r)
		}
	}()
	wcfg := c.wcfg
	wcfg.Trial = trial
	// Stream the workload instead of materializing it: the source yields
	// tasks in arrival order from a per-trial arena and the simulator
	// recycles each one as its outcome is tallied, so a trial's memory is
	// bounded by the in-flight window, not the task count. A fresh Source
	// per trial is required — trials run concurrently and the arena is not
	// thread-safe (c.model is shared read-only; Stream() derives fresh
	// per-trial state).
	src := workload.NewSourceWith(c.matrix, c.model, wcfg)
	cfg := c.sim
	// Fresh heuristic instance per trial: some heuristics carry cursors.
	if cfg.Heuristic, _, err = sched.ByName(c.s.Platform.Heuristic); err != nil {
		return nil, err
	}
	if e.NewClock != nil {
		cfg.Clock = e.NewClock()
	}
	res, err = sim.RunStream(c.matrix, src, cfg)
	if errors.Is(err, sim.ErrNoTasks) {
		return nil, fmt.Errorf("scenario %q: workload generated no tasks (tasks=%d at scale %v)",
			c.s.Name, c.s.Workload.Tasks, c.s.Run.Scale)
	}
	return res, err
}

// summarize folds per-trial results into an Outcome.
func summarize(s Scenario, results []*sim.Result) *Outcome {
	rob := make([]float64, len(results))
	wrob := make([]float64, len(results))
	for i, r := range results {
		rob[i] = r.Robustness
		wrob[i] = r.WeightedRobustness
	}
	return &Outcome{
		Scenario:           s,
		Robustness:         stats.Summarize(rob),
		WeightedRobustness: stats.Summarize(wrob),
		Results:            results,
	}
}
