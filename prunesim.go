// Package prunesim is a simulator and library for probabilistic task
// pruning in heterogeneous serverless computing systems, reproducing
// Denninnart, Gentry & Amini Salehi, "Improving Robustness of Heterogeneous
// Serverless Computing Systems Via Probabilistic Task Pruning" (IPDPS
// Workshops 2019).
//
// The package is a facade over the implementation packages, organised as
// three construction → run → results clients:
//
//   - Platform (platform.go): simulate one workload on one configuration.
//   - Study (study.go): run a declarative Scenario — trials, sweeps,
//     progress callbacks, optional wall-clock pacing.
//   - AdmissionSession (admission.go): stream real task arrivals through
//     the pruner for online accept/defer/drop verdicts.
//
// A minimal Platform session:
//
//	matrix := prunesim.StandardPET()
//	platform, err := prunesim.NewPlatform(prunesim.PlatformConfig{
//		Matrix:       matrix,
//		MachineTypes: []int{0, 1, 2, 3, 4, 5, 6, 7},
//		Heuristic:    "MM",
//		Pruning:      prunesim.DefaultPruning(matrix.NumTaskTypes()),
//	})
//	// ...
//	tasks, err := prunesim.GenerateWorkload(matrix, prunesim.DefaultWorkload(15000))
//	result, err := platform.Run(tasks)
//	fmt.Printf("robustness: %.1f%%\n", result.Robustness)
//
// Key concepts (paper Section II):
//
//   - PET matrix: a Probabilistic Execution Time PMF per (task type,
//     machine type) pair.
//   - PCT: the Probabilistic Completion Time of a task, the convolution of
//     its PET with the PCT of the task ahead of it in the machine queue.
//   - Chance of success: P(PCT <= deadline).
//   - Pruning: deferring or dropping tasks whose chance is below a
//     threshold, with per-type fairness offsets and an oversubscription
//     toggle.
package prunesim

import (
	"prunesim/internal/calibration"
	"prunesim/internal/core"
	"prunesim/internal/energy"
	"prunesim/internal/experiments"
	"prunesim/internal/pet"
	"prunesim/internal/pmf"
	"prunesim/internal/scenario"
	"prunesim/internal/sched"
	"prunesim/internal/sim"
	"prunesim/internal/stats"
	"prunesim/internal/task"
	"prunesim/internal/workload"
)

// Probability distributions (see internal/pmf).
type (
	// PMF is a discrete probability mass function over time bins — the
	// representation of execution and completion time uncertainty.
	PMF = pmf.PMF
)

// NewPMF constructs a PMF from a mass vector starting at bin origin with
// the given bin width; masses are normalized.
func NewPMF(origin int, width float64, masses []float64, tail float64) *PMF {
	return pmf.New(origin, width, masses, tail)
}

// PET matrices (see internal/pet).
type (
	// PETMatrix holds one execution-time PMF per (task type, machine type).
	PETMatrix = pet.Matrix
	// PETParams controls PET PMF generation.
	PETParams = pet.Params
)

// DefaultPETParams returns the paper's PET generation parameters (500 Gamma
// samples per cell, shape drawn from [1, 20]).
func DefaultPETParams() PETParams { return pet.DefaultParams() }

// StandardPET returns the shipped 12-benchmark x 8-machine inconsistently
// heterogeneous PET matrix.
func StandardPET() *PETMatrix { return pet.Standard(pet.DefaultParams()) }

// HomogeneousPET returns the single-machine-type matrix used for the
// paper's homogeneous-system experiments.
func HomogeneousPET() *PETMatrix { return pet.Homogeneous(pet.DefaultParams()) }

// NewPETMatrix generates a custom PET matrix from mean execution times
// (rows: task types, columns: machine types).
func NewPETMatrix(means [][]float64, taskNames, machineNames []string, p PETParams) *PETMatrix {
	return pet.NewMatrix(means, taskNames, machineNames, p)
}

// Tasks and workloads (see internal/task, internal/workload).
type (
	// Task is one service request with a hard individual deadline.
	Task = task.Task
	// WorkloadConfig parameterizes a workload trial.
	WorkloadConfig = workload.Config
)

// NewTask creates a task of the given type with an arrival time and hard
// deadline. A workload for Platform.Run numbers its tasks 0..n-1 in
// arrival order.
func NewTask(id, taskType int, arrival, deadline float64) *Task {
	return task.New(id, taskType, arrival, deadline)
}

// DefaultWorkload returns the paper's workload configuration (spiky, 3000
// time units) at the given oversubscription level (total tasks: the paper
// uses 15000, 20000, 25000).
func DefaultWorkload(numTasks int) WorkloadConfig { return workload.DefaultConfig(numTasks) }

// GenerateWorkload builds one workload trial (tasks sorted by arrival, IDs
// in arrival order, deadlines per Eq. 4). Invalid configurations are
// reported as errors, never panics.
func GenerateWorkload(m *PETMatrix, cfg WorkloadConfig) ([]*Task, error) {
	return workload.Generate(m, cfg)
}

// Pruning (see internal/core — the paper's contribution).
type (
	// PruningConfig configures the pruning mechanism.
	PruningConfig = core.Config
	// ToggleMode selects when proactive dropping engages.
	ToggleMode = core.ToggleMode
)

// Toggle modes.
const (
	// ToggleNever disables proactive dropping.
	ToggleNever = core.ToggleNever
	// ToggleAlways drops at every mapping event.
	ToggleAlways = core.ToggleAlways
	// ToggleReactive drops only under observed oversubscription.
	ToggleReactive = core.ToggleReactive
)

// DefaultPruning returns the paper's pruning defaults: threshold 50%,
// fairness factor 0.05, reactive toggle, deferring enabled.
func DefaultPruning(numTaskTypes int) PruningConfig { return core.DefaultConfig(numTaskTypes) }

// NoPruning disables probabilistic pruning (baseline systems).
func NoPruning(numTaskTypes int) PruningConfig { return core.Disabled(numTaskTypes) }

// Simulation (see internal/sim).
type (
	// Result aggregates one simulation run.
	Result = sim.Result
	// AllocationMode selects batch- or immediate-mode allocation.
	AllocationMode = sim.Mode
	// TraceEvent is a task lifecycle event for observers.
	TraceEvent = sim.TraceEvent
)

// Allocation modes.
const (
	// BatchAllocation queues arrivals and maps them in batch events.
	BatchAllocation = sim.BatchMode
	// ImmediateAllocation maps each task upon arrival.
	ImmediateAllocation = sim.ImmediateMode
)

// Statistics (see internal/stats).
type (
	// Summary holds mean, deviation and a 95% confidence interval.
	Summary = stats.Summary
)

// Summarize computes mean, stddev, min/max and 95% CI of xs (the zero
// Summary on an empty sample).
func Summarize(xs []float64) Summary { return stats.Summarize(xs) }

// Experiments (see internal/experiments).
type (
	// FigureResult is one regenerated paper figure.
	FigureResult = experiments.FigureResult
	// FigureOptions tunes figure regeneration.
	FigureOptions = experiments.Options
	// FigureRow is one data point of a figure.
	FigureRow = experiments.Row
)

// FigureNames lists the regenerable figures ("6", "7a", ... "a3").
func FigureNames() []string { return experiments.Names() }

// RunFigure regenerates one of the paper's figures.
func RunFigure(name string, opt FigureOptions) (*FigureResult, error) {
	return experiments.Run(name, opt)
}

// Energy and cost (see internal/energy; the paper's Section VII analysis).
type (
	// EnergyParams models cluster power draw and price.
	EnergyParams = energy.Params
	// EnergyReport is the energy/cost view of one run.
	EnergyReport = energy.Report
)

// DefaultEnergyParams returns a representative server power/price profile.
func DefaultEnergyParams() EnergyParams { return energy.DefaultParams() }

// AnalyzeEnergy converts a simulation result into an energy/cost report.
func AnalyzeEnergy(res *Result, machines int, p EnergyParams) (*EnergyReport, error) {
	return energy.Analyze(res, machines, p)
}

// HeuristicNames lists all supported mapping heuristics: RR, MET, MCT, KPB
// (immediate mode); MM, MSD, MMU (batch, heterogeneous); FCFS-RR, EDF, SJF
// (batch, homogeneous) — the ten the paper evaluates — then OLB
// (immediate), MaxMin and Sufferage (batch), extra baselines from the same
// literature (Braun et al., Maheswaran et al.).
func HeuristicNames() []string { return sched.Names() }

// Scenarios (see internal/scenario): the declarative front end. A Scenario
// is a JSON-encodable description of one simulation study — workload shape,
// platform, pruning configuration and trial settings — and the unit the
// sweep engine, the CLIs and the figure drivers all consume.
type (
	// Scenario declares one simulation study end to end.
	Scenario = scenario.Scenario
	// ScenarioOutcome is the result of running one scenario.
	ScenarioOutcome = scenario.Outcome
	// ScenarioEngine resolves and runs scenarios on a bounded worker pool,
	// caching generated PET matrices across cells.
	ScenarioEngine = scenario.Engine
)

// ScenarioTrialProgress reports one finished trial during a Study run
// with an OnTrial callback (and Engine.RunWithProgress).
type ScenarioTrialProgress = scenario.TrialProgress

// LoadScenario reads, parses and normalizes one scenario JSON file. Unknown
// fields are errors, so typos in hand-written files surface immediately.
func LoadScenario(path string) (Scenario, error) { return scenario.Load(path) }

// NewScenarioEngine returns a scenario engine with the given trial
// parallelism bound (0 = GOMAXPROCS).
func NewScenarioEngine(parallelism int) *ScenarioEngine { return scenario.NewEngine(parallelism) }

// Calibration (see internal/calibration).
type (
	// CalibrationReport is a reliability table relating predicted chance of
	// success to realized on-time frequency.
	CalibrationReport = calibration.Report
)

// AssessCalibration runs one simulation of the platform over the given
// workload and returns the reliability table of the chance-of-success
// estimator: tasks mapped at predicted chance p should complete on time
// with empirical frequency near p. bins sets the table resolution. The run
// uses the platform's full configuration (including PCTTailEps), except
// that its Observer is not called: the assessment installs its own.
func (p *Platform) AssessCalibration(tasks []*Task, bins int) (*CalibrationReport, error) {
	cfg, err := p.simConfig()
	if err != nil {
		return nil, err
	}
	cfg.Observer = nil
	return calibration.Assess(p.cfg.Matrix, tasks, cfg, bins)
}
