package prunesim

import (
	"fmt"

	"prunesim/internal/clock"
	"prunesim/internal/scenario"
)

// Study is the client-style way to run a scenario: construct with NewStudy,
// chain options, then Run — one construction → run → results path:
//
//	outcome, err := prunesim.NewStudy(sc).
//		OnTrial(func(p prunesim.ScenarioTrialProgress) { bar.Tick(p) }).
//		Run()
//
// A Study is single-use: configure, Run once, read the outcome.
type Study struct {
	scenario Scenario
	onTrial  func(ScenarioTrialProgress)
	speedup  float64
}

// NewStudy starts a study of the given scenario.
func NewStudy(s Scenario) *Study { return &Study{scenario: s} }

// OnTrial registers a live per-trial callback — the hook the prunesimd
// daemon streams job progress from. Calls are serialized; see
// scenario.Engine.RunWithProgress for the contract.
func (st *Study) OnTrial(fn func(ScenarioTrialProgress)) *Study {
	st.onTrial = fn
	return st
}

// Paced runs the study against a real wall clock running speedup× faster
// than simulated time (1 is real time). Trials run sequentially — pacing
// several trials at once would interleave their sleeps into nonsense.
// Results are identical to an unpaced run; only the wall-clock pacing
// differs.
func (st *Study) Paced(speedup float64) *Study {
	st.speedup = speedup
	return st
}

// Run normalizes and executes the scenario, running its trials concurrently
// (or sequentially against the wall clock if Paced).
func (st *Study) Run() (*ScenarioOutcome, error) {
	eng := scenario.NewEngine(0)
	if st.speedup != 0 {
		if !(st.speedup > 0) {
			return nil, fmt.Errorf("pace: speedup must be positive, got %v", st.speedup)
		}
		st.scenario.Run.Parallelism = 1
		eng.NewClock = func() clock.Clock { return clock.NewReal(st.speedup) }
	}
	return eng.RunWithProgress(st.scenario, st.onTrial)
}
