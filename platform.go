package prunesim

import (
	"fmt"

	"prunesim/internal/sched"
	"prunesim/internal/sim"
	"prunesim/internal/workload"
)

// PlatformConfig describes a serverless platform to simulate: its machines,
// allocation mode, mapping heuristic and pruning mechanism.
type PlatformConfig struct {
	// Matrix is the PET matrix; nil selects StandardPET().
	Matrix *PETMatrix
	// MachineTypes assigns a PET machine-type column to each machine; nil
	// selects one machine of every type of the matrix.
	MachineTypes []int
	// Mode is the allocation style; the zero value is BatchAllocation.
	Mode AllocationMode
	// Heuristic is a mapping heuristic name from HeuristicNames(); empty
	// selects "MM" in batch mode and "MCT" in immediate mode.
	Heuristic string
	// QueueSlots caps pending tasks per machine queue in batch mode
	// (default 2).
	QueueSlots int
	// Pruning configures the pruning mechanism; the zero value disables
	// probabilistic pruning.
	Pruning PruningConfig
	// Seed drives execution-time sampling.
	Seed uint64
	// ExcludeBoundary excludes the first/last N tasks from statistics
	// (paper: 100). A workload of n <= 2*ExcludeBoundary+1 tasks excludes
	// n/4 at each end instead.
	ExcludeBoundary int
	// PCTTailEps, in [0, 1), enables ε-conservative completion-time tail
	// compression: each chain convolution folds at most this much tail
	// probability mass into a catch-all bin, bounding PCT support on long
	// queues. 0 keeps exact distributions. Compression only ever lowers
	// estimated success chances, so pruning stays conservative.
	PCTTailEps float64
	// Observer, when non-nil, receives every task lifecycle event.
	Observer func(TraceEvent)
}

// Platform is a configured serverless-platform simulator. Each Run builds a
// fresh heuristic instance, so a Platform may be reused across workloads.
type Platform struct {
	cfg PlatformConfig
}

// NewPlatform validates the configuration and returns a Platform.
func NewPlatform(cfg PlatformConfig) (*Platform, error) {
	if cfg.Matrix == nil {
		cfg.Matrix = StandardPET()
	}
	if cfg.MachineTypes == nil {
		cfg.MachineTypes = make([]int, cfg.Matrix.NumMachineTypes())
		for j := range cfg.MachineTypes {
			cfg.MachineTypes[j] = j
		}
	}
	if cfg.Heuristic == "" {
		if cfg.Mode == ImmediateAllocation {
			cfg.Heuristic = "MCT"
		} else {
			cfg.Heuristic = "MM"
		}
	}
	if cfg.Pruning.NumTaskTypes == 0 {
		cfg.Pruning.NumTaskTypes = cfg.Matrix.NumTaskTypes()
	}
	p := &Platform{cfg: cfg}
	simCfg, err := p.simConfig()
	if err != nil {
		return nil, err
	}
	if err := sim.Validate(cfg.Matrix, simCfg); err != nil {
		return nil, err
	}
	return p, nil
}

// Config returns the platform's (defaulted) configuration.
func (p *Platform) Config() PlatformConfig { return p.cfg }

// simConfig builds the simulator configuration of one run, with a fresh
// heuristic instance (some heuristics carry cursors, so runs never share
// one). Every run path shares the boundary rule documented on
// PlatformConfig.ExcludeBoundary.
func (p *Platform) simConfig() (sim.Config, error) {
	h, _, err := sched.ByName(p.cfg.Heuristic)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Mode:            p.cfg.Mode,
		Heuristic:       h,
		MachineTypes:    p.cfg.MachineTypes,
		Slots:           p.cfg.QueueSlots,
		Prune:           p.cfg.Pruning,
		Seed:            p.cfg.Seed,
		ExcludeBoundary: p.cfg.ExcludeBoundary,
		TailEps:         p.cfg.PCTTailEps,
		Observer:        p.cfg.Observer,

		AutoExcludeBoundary: true,
	}, nil
}

// Run simulates the platform over the given workload. Task IDs must be
// 0..n-1 in slice order and arrival times must not decrease, as
// GenerateWorkload builds them; anything else is an error. Task structs
// are mutated in place (statuses, start/completion times); generate a
// fresh workload per run to compare configurations.
func (p *Platform) Run(tasks []*Task) (*Result, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("prunesim: empty workload")
	}
	cfg, err := p.simConfig()
	if err != nil {
		return nil, err
	}
	return sim.Run(p.cfg.Matrix, tasks, cfg)
}

// RunTrial generates workload trial number `trial` from cfg as a stream
// and runs it, with memory bounded by the in-flight task window plus fixed
// per-machine state, never by the total task count. Its Result is
// bitwise-identical to Run over GenerateWorkload's slice of the same trial.
func (p *Platform) RunTrial(wcfg WorkloadConfig, trial int) (*Result, error) {
	wcfg.Trial = trial
	src, err := workload.NewSource(p.cfg.Matrix, wcfg)
	if err != nil {
		return nil, err
	}
	cfg, err := p.simConfig()
	if err != nil {
		return nil, err
	}
	return sim.RunStream(p.cfg.Matrix, src, cfg)
}
