// Package sim is the discrete-event simulator of the heterogeneous
// serverless platform (Figure 1): tasks arrive at a resource-allocation
// system (immediate- or batch-mode), a mapping heuristic assigns them to
// machine queues, machines execute them FCFS without preemption, and the
// pruning mechanism — when attached — drops and defers unlikely-to-succeed
// tasks at every mapping event (Figure 5).
//
// A mapping event fires on every task arrival and on every task completion.
// Simulations are fully deterministic given (workload, PET matrix, config
// seed); actual execution times are sampled per (task, machine) pair from
// the same PET PMFs the scheduler reasons over, so scheduler estimates and
// ground truth share a distribution but individual realizations differ —
// exactly the paper's two uncertainty sources.
package sim

import (
	"errors"
	"fmt"
	"math"

	"prunesim/internal/clock"
	"prunesim/internal/core"
	"prunesim/internal/eventq"
	"prunesim/internal/machine"
	"prunesim/internal/pet"
	"prunesim/internal/pmf"
	"prunesim/internal/randx"
	"prunesim/internal/sched"
	"prunesim/internal/task"
)

// Mode selects the resource-allocation style (Figure 1a vs 1b).
type Mode uint8

const (
	// BatchMode queues arrivals and maps them in two-phase batch events;
	// machine queues have bounded pending slots.
	BatchMode Mode = iota
	// ImmediateMode maps every task the moment it arrives; machine queues
	// are unbounded and there is no arrival queue (so no deferring).
	ImmediateMode
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case BatchMode:
		return "batch"
	case ImmediateMode:
		return "immediate"
	default:
		return "unknown"
	}
}

// Config parameterizes one simulation run.
type Config struct {
	// Mode is the resource-allocation style. It must match the heuristic
	// kind: sched.Immediate for ImmediateMode, sched.Batch for BatchMode.
	Mode Mode
	// Heuristic is the mapping heuristic instance (fresh per run — some
	// heuristics carry cursors).
	Heuristic any
	// MachineTypes assigns a PET-matrix machine-type column to each
	// machine; len(MachineTypes) is the cluster size.
	MachineTypes []int
	// Slots is the pending-queue capacity per machine in batch mode
	// (paper-style small machine queues; default 2 via DefaultSlots).
	// Immediate mode ignores it, but a negative value is an error in
	// both modes.
	Slots int
	// Prune is the pruning mechanism configuration.
	Prune core.Config
	// Seed drives execution-time sampling. Each (task, machine) pair has an
	// independent sub-stream, so the realized duration of a task on a given
	// machine is identical across configurations — a variance-reduction
	// device that sharpens head-to-head comparisons.
	Seed uint64
	// ExcludeBoundary excludes the first and last N tasks (by arrival
	// order) from the robustness statistics, as the paper does with N=100,
	// to measure the oversubscribed steady state.
	ExcludeBoundary int
	// Observer, when non-nil, receives every task lifecycle event. Used for
	// trace export and debugging; it adds no cost when nil.
	Observer func(TraceEvent)
	// Events are scheduled platform changes (machine failures, joins,
	// degradations, capacity scaling), sorted by time. Nil or empty means a
	// static platform — and produces trial outcomes bitwise-identical to a
	// build without the event subsystem: every event-handling guard in the
	// loop is a no-op when no events are scheduled.
	Events []PlatformEvent
	// Clock paces the simulation (see internal/clock). Nil means pure
	// simulated time: no pacing, full CPU speed.
	Clock clock.Clock
	// TailEps, when positive, enables tail-mass-ε PCT compression on every
	// machine (machine.SetTailEps): after each queue-chain convolution the
	// largest suffix with mass <= TailEps folds into the PMF's tail bucket.
	// Chance-of-success estimates become at most ε-per-chain-link lower —
	// conservative, never optimistic — while PMF supports stay bounded over
	// million-task trials. Must be in [0, 1); 0 (default) keeps exact PCTs.
	TailEps float64
	// AutoExcludeBoundary clamps ExcludeBoundary to total/4 when the
	// workload turns out too small for it (total <= 2*ExcludeBoundary+1)
	// instead of returning an error. Streaming runs learn the task total
	// only when the source dries up, so this is how RunStream callers keep
	// tiny workloads runnable without pre-counting.
	AutoExcludeBoundary bool
}

// TaskSource yields the tasks of one trial in arrival order. RunStream
// requires IDs to be assigned sequentially from 0 in yield order (the
// counted-window tally folds outcomes in ID order); workload.Source
// satisfies this by construction.
type TaskSource interface {
	Next() (*task.Task, bool)
}

// TaskRecycler is optionally implemented by a TaskSource whose tasks come
// from an arena. RunStream hands each task back the moment its outcome has
// been tallied, so a trial's live task memory is bounded by the in-flight
// window rather than the workload size. A recycled task must not be
// referenced again.
type TaskRecycler interface {
	Recycle(*task.Task)
}

// ErrNoTasks reports a task source that yielded no tasks at all.
var ErrNoTasks = errors.New("sim: workload contains no tasks")

// PlatformEventKind classifies scheduled platform events.
type PlatformEventKind uint8

const (
	// PlatformFail takes a machine down. Its running task and pending queue
	// are orphaned back to the arrival queue for re-mapping.
	PlatformFail PlatformEventKind = iota
	// PlatformJoin brings a machine up: either a previously failed machine
	// (Machine >= 0) or Count new machines appended to the cluster
	// (Machine < 0).
	PlatformJoin
	// PlatformDegrade multiplies a machine's execution times by Factor (> 1
	// slows it down); the scheduler's PET view stretches to match.
	PlatformDegrade
	// PlatformRestore returns a degraded machine to nominal speed.
	PlatformRestore
)

// String names the platform event kind.
func (k PlatformEventKind) String() string {
	switch k {
	case PlatformFail:
		return "fail"
	case PlatformJoin:
		return "join"
	case PlatformDegrade:
		return "degrade"
	case PlatformRestore:
		return "restore"
	default:
		return "unknown"
	}
}

// PlatformEvent is one scheduled change to the machine set, in simulation
// time units on the same clock as task arrivals.
type PlatformEvent struct {
	// Time is when the event fires. Events at the same instant as a task
	// arrival are processed before the arrival (the schedule is pushed onto
	// the event queue first, and ties pop in insertion order).
	Time float64
	// Kind selects the change.
	Kind PlatformEventKind
	// Machine is the target machine index; -1 on a PlatformJoin means "add
	// Count new machines" instead of rejoining an existing one.
	Machine int
	// Count is how many machines a capacity-scaling PlatformJoin adds.
	Count int
	// MachineType is the PET-matrix column for added machines; -1 cycles
	// through the matrix's machine types round-robin by machine index.
	MachineType int
	// Factor is the execution-time multiplier of a PlatformDegrade,
	// absolute relative to the machine's nominal speed (not cumulative).
	Factor float64
}

// MaxMachines bounds the cluster size, initial or reached through capacity
// joins: every machine costs simulator state and a scan per mapping event.
const MaxMachines = 4096

// ValidateEvents checks a platform-event schedule against a cluster of the
// given initial size and a PET matrix with machineTypes columns: times must
// be finite, non-negative and non-decreasing, targets must exist at the
// time they are referenced, a machine may only fail while up and only
// rejoin while down, and the cluster never exceeds MaxMachines. Shared by
// the simulator and the scenario compiler so both reject the same
// schedules.
func ValidateEvents(machines, machineTypes int, events []PlatformEvent) error {
	if machines > MaxMachines {
		return fmt.Errorf("sim: cluster of %d machines exceeds %d", machines, MaxMachines)
	}
	n := machines
	down := make(map[int]bool, 4)
	prev := math.Inf(-1)
	for i, e := range events {
		if math.IsNaN(e.Time) || math.IsInf(e.Time, 0) || e.Time < 0 {
			return fmt.Errorf("sim: event %d: bad time %v", i, e.Time)
		}
		if e.Time < prev {
			return fmt.Errorf("sim: event %d at %v fires before event %d at %v", i, e.Time, i-1, prev)
		}
		prev = e.Time
		if e.Kind == PlatformJoin && e.Machine < 0 {
			if e.Count <= 0 {
				return fmt.Errorf("sim: event %d: capacity join needs Count > 0, got %d", i, e.Count)
			}
			if e.MachineType < -1 || e.MachineType >= machineTypes {
				return fmt.Errorf("sim: event %d: machine type %d outside PET matrix (%d types)", i, e.MachineType, machineTypes)
			}
			if e.Count > MaxMachines-n {
				return fmt.Errorf("sim: event %d: joining %d machines to a cluster of %d exceeds %d", i, e.Count, n, MaxMachines)
			}
			n += e.Count
			continue
		}
		if e.Machine < 0 || e.Machine >= n {
			return fmt.Errorf("sim: event %d: machine %d outside cluster of %d", i, e.Machine, n)
		}
		switch e.Kind {
		case PlatformFail:
			if down[e.Machine] {
				return fmt.Errorf("sim: event %d: machine %d fails while already down", i, e.Machine)
			}
			down[e.Machine] = true
		case PlatformJoin:
			if !down[e.Machine] {
				return fmt.Errorf("sim: event %d: machine %d joins while already up", i, e.Machine)
			}
			down[e.Machine] = false
		case PlatformDegrade:
			if down[e.Machine] {
				return fmt.Errorf("sim: event %d: machine %d degraded while down", i, e.Machine)
			}
			if !(e.Factor > 0) || math.IsInf(e.Factor, 0) || math.IsNaN(e.Factor) {
				return fmt.Errorf("sim: event %d: degrade factor must be positive and finite, got %v", i, e.Factor)
			}
		case PlatformRestore:
			if down[e.Machine] {
				return fmt.Errorf("sim: event %d: machine %d restored while down", i, e.Machine)
			}
		default:
			return fmt.Errorf("sim: event %d: unknown kind %d", i, e.Kind)
		}
	}
	return nil
}

// TraceKind classifies task lifecycle events for observers.
type TraceKind uint8

const (
	// TraceArrived fires when a task reaches the resource allocator.
	TraceArrived TraceKind = iota
	// TraceMapped fires when a task is placed on a machine queue.
	TraceMapped
	// TraceDeferred fires when the pruner postpones a mapped task.
	TraceDeferred
	// TraceStarted fires when a machine begins executing a task.
	TraceStarted
	// TraceCompleted fires when execution finishes (on time or late).
	TraceCompleted
	// TraceDroppedReactive fires when a queued task is dropped past its
	// deadline.
	TraceDroppedReactive
	// TraceDroppedProactive fires when the pruner drops a low-chance task.
	TraceDroppedProactive
	// TraceRequeued fires when a machine failure orphans a task back to the
	// arrival queue.
	TraceRequeued
	// TraceMachineFailed, TraceMachineJoined, TraceMachineDegraded and
	// TraceMachineRestored report platform events; TaskID/TaskType are -1.
	TraceMachineFailed
	TraceMachineJoined
	TraceMachineDegraded
	TraceMachineRestored
)

// String names the trace kind.
func (k TraceKind) String() string {
	switch k {
	case TraceArrived:
		return "arrived"
	case TraceMapped:
		return "mapped"
	case TraceDeferred:
		return "deferred"
	case TraceStarted:
		return "started"
	case TraceCompleted:
		return "completed"
	case TraceDroppedReactive:
		return "dropped-reactive"
	case TraceDroppedProactive:
		return "dropped-proactive"
	case TraceRequeued:
		return "requeued"
	case TraceMachineFailed:
		return "machine-failed"
	case TraceMachineJoined:
		return "machine-joined"
	case TraceMachineDegraded:
		return "machine-degraded"
	case TraceMachineRestored:
		return "machine-restored"
	default:
		return "unknown"
	}
}

// TraceEvent is one observed task lifecycle transition. Machine is -1 when
// the task is not associated with a machine. OnTime is meaningful only for
// TraceCompleted.
type TraceEvent struct {
	Time     float64
	Kind     TraceKind
	TaskID   int
	TaskType int
	Machine  int
	OnTime   bool
	// Chance is the task's predicted chance of success at the moment of the
	// event. It is populated for TraceMapped and TraceDeferred events (the
	// points where the system evaluates Eq. 2) and is -1 otherwise.
	Chance float64
}

// DefaultSlots is the default pending-slot capacity per machine in batch
// mode.
const DefaultSlots = 2

// Result aggregates one simulation run.
type Result struct {
	// TotalTasks is the number of tasks in the workload.
	TotalTasks int
	// Counted is the number of tasks inside the measurement window.
	Counted int
	// OnTime, Late, DroppedReactive, DroppedProactive and Unfinished
	// partition Counted.
	OnTime           int
	Late             int
	DroppedReactive  int
	DroppedProactive int
	Unfinished       int
	// Deferrals is the total number of deferring decisions (a task may be
	// deferred multiple times).
	Deferrals int
	// MappingEvents is the number of mapping events executed.
	MappingEvents int
	// Robustness is the paper's metric: percentage of counted tasks that
	// completed on time.
	Robustness float64
	// ValueTotal and ValueOnTime sum task values over the counted window
	// (all tasks, and on-time completions). WeightedRobustness is their
	// ratio in percent — the metric of the value-aware pruning extension.
	// With unit task values it equals Robustness.
	ValueTotal         float64
	ValueOnTime        float64
	WeightedRobustness float64
	// PerTypeOnTime and PerTypeDropped break outcomes down by task type
	// (counted window only).
	PerTypeOnTime  []int
	PerTypeDropped []int
	// BusyTime is total machine-seconds spent executing; WastedTime is the
	// share spent on tasks that finished late (no value produced). These
	// feed the paper's future-work energy/cost analysis.
	BusyTime   float64
	WastedTime float64
	// Makespan is the completion time of the last event.
	Makespan float64
	// PlatformEvents is the number of scheduled platform events executed;
	// Requeues counts tasks orphaned back to the arrival queue by machine
	// failures. Both are zero on a static platform.
	PlatformEvents int
	Requeues       int
}

// conservationError verifies that every counted task is in exactly one
// terminal bucket.
func (r *Result) conservationError() error {
	sum := r.OnTime + r.Late + r.DroppedReactive + r.DroppedProactive + r.Unfinished
	if sum != r.Counted {
		return fmt.Errorf("sim: conservation violated: %d outcomes for %d counted tasks", sum, r.Counted)
	}
	return nil
}

// Run executes one simulation over the given materialized workload. Task
// IDs must be 0..n-1 in slice order and arrival times must not decrease;
// anything else is rejected before the run. The tasks are fed through the
// same loop as RunStream and are not recycled: each struct is reset on
// arrival and keeps its final status, machine and times afterwards
// (generate a fresh workload per run if you need the originals). It
// returns an error for configuration mistakes; invariant violations panic,
// as they indicate bugs, not bad input.
func Run(matrix *pet.Matrix, tasks []*task.Task, cfg Config) (*Result, error) {
	for i, t := range tasks {
		switch {
		case t == nil:
			return nil, fmt.Errorf("sim: task %d is nil", i)
		case t.ID != i:
			return nil, fmt.Errorf("sim: task at index %d has ID %d (IDs must be 0..n-1 in arrival order)", i, t.ID)
		case i > 0 && t.Arrival < tasks[i-1].Arrival:
			return nil, fmt.Errorf("sim: task %d arrives at %v, before task %d at %v (arrivals must not decrease)",
				i, t.Arrival, i-1, tasks[i-1].Arrival)
		}
	}
	if cfg.AutoExcludeBoundary && cfg.ExcludeBoundary >= 0 && len(tasks) <= 2*cfg.ExcludeBoundary+1 {
		cfg.ExcludeBoundary = len(tasks) / 4
	}
	if cfg.ExcludeBoundary < 0 || 2*cfg.ExcludeBoundary >= len(tasks) {
		return nil, fmt.Errorf("sim: ExcludeBoundary %d out of range for %d tasks", cfg.ExcludeBoundary, len(tasks))
	}
	return RunStream(matrix, &sliceSource{tasks: tasks}, cfg)
}

// sliceSource is Run's TaskSource. It has no Recycle method, so the
// caller's task structs survive the run.
type sliceSource struct {
	tasks []*task.Task
	next  int
}

func (s *sliceSource) Next() (*task.Task, bool) {
	if s.next == len(s.tasks) {
		return nil, false
	}
	s.next++
	return s.tasks[s.next-1], true
}

// RunStream executes one simulation pulling tasks incrementally from src,
// with memory bounded by the in-flight window plus fixed aggregator state —
// never by the total task count. If src implements TaskRecycler, every
// task is handed back the moment its outcome is tallied. It returns
// ErrNoTasks (wrapped) when the source yields nothing.
func RunStream(matrix *pet.Matrix, src TaskSource, cfg Config) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("sim: nil task source")
	}
	s, err := newSimCore(matrix, cfg)
	if err != nil {
		return nil, err
	}
	rec, _ := src.(TaskRecycler)
	s.stream = streamState{src: src, rec: rec}
	return s.runStream()
}

type simulator struct {
	matrix   *pet.Matrix
	cfg      Config
	machines []*machine.Machine
	batch    []*task.Task // arrival queue (batch mode)
	imm      sched.Immediate
	bat      sched.Batch
	pruner   *core.Pruner
	events   eventq.Queue
	now      float64

	// scratch recycles PMF buffers across every convolution of the trial;
	// it is borrowed from the process-wide pool for the duration of the run.
	scratch *pmf.Scratch
	// ctx is the reusable heuristic context (only Now changes per event).
	ctx sched.Context
	// availBuf is the reusable unmapped-candidates buffer for batchMap.
	availBuf []*task.Task
	// durRNG is the reusable execution-time sampler, reseeded per task start
	// (see sampleDuration).
	durRNG *randx.RNG
	// stream is the task source and counted-window tally state.
	stream streamState

	// Platform-event state. gen[j] is machine j's generation: bumped on
	// every failure so completion events scheduled before the failure pop
	// stale and are discarded. slow[j] is machine j's current execution-time
	// multiplier (1 = nominal). stretched caches degraded PET PMFs per
	// (taskType, machineType, factor). All of it is inert without events:
	// gens stay zero, slow stays 1, the cache stays empty.
	gen       []uint64
	slow      []float64
	stretched map[stretchKey]*pmf.PMF

	res Result
}

// stretchKey identifies a degraded PET distribution.
type stretchKey struct {
	taskType    int
	machineType int
	factorBits  uint64
}

// Validate reports whether RunStream accepts cfg over matrix: everything
// but the ExcludeBoundary's fit to the task total, which a stream learns
// only when it drains.
func Validate(matrix *pet.Matrix, cfg Config) error {
	_, err := checkConfig(matrix, cfg)
	return err
}

// checkConfig validates cfg over matrix and returns it with its defaults
// filled in (Slots, Prune.NumTaskTypes). Whether ExcludeBoundary fits the
// task total is checked by the callers: a stream's total is known only at
// the end of the trial.
func checkConfig(matrix *pet.Matrix, cfg Config) (Config, error) {
	if matrix == nil {
		return cfg, fmt.Errorf("sim: nil PET matrix")
	}
	if cfg.ExcludeBoundary < 0 {
		return cfg, fmt.Errorf("sim: ExcludeBoundary %d must be non-negative", cfg.ExcludeBoundary)
	}
	if len(cfg.MachineTypes) == 0 {
		return cfg, fmt.Errorf("sim: no machines configured")
	}
	for _, mt := range cfg.MachineTypes {
		if mt < 0 || mt >= matrix.NumMachineTypes() {
			return cfg, fmt.Errorf("sim: machine type %d outside PET matrix (%d types)", mt, matrix.NumMachineTypes())
		}
	}
	if cfg.Slots < 0 {
		return cfg, fmt.Errorf("sim: Slots must be non-negative, got %d", cfg.Slots)
	}
	if cfg.Slots == 0 {
		cfg.Slots = DefaultSlots
	}
	if cfg.Prune.NumTaskTypes == 0 {
		cfg.Prune.NumTaskTypes = matrix.NumTaskTypes()
	}
	if cfg.Prune.NumTaskTypes != matrix.NumTaskTypes() {
		return cfg, fmt.Errorf("sim: pruner sized for %d task types, matrix has %d",
			cfg.Prune.NumTaskTypes, matrix.NumTaskTypes())
	}
	if err := cfg.Prune.Validate(); err != nil {
		return cfg, err
	}
	if cfg.TailEps < 0 || cfg.TailEps >= 1 || math.IsNaN(cfg.TailEps) {
		return cfg, fmt.Errorf("sim: TailEps %v out of range [0, 1)", cfg.TailEps)
	}
	if err := ValidateEvents(len(cfg.MachineTypes), matrix.NumMachineTypes(), cfg.Events); err != nil {
		return cfg, err
	}
	switch h := cfg.Heuristic.(type) {
	case sched.Immediate:
		if cfg.Mode != ImmediateMode {
			return cfg, fmt.Errorf("sim: immediate heuristic %s with batch mode", h.Name())
		}
	case sched.Batch:
		if cfg.Mode != BatchMode {
			return cfg, fmt.Errorf("sim: batch heuristic %s with immediate mode", h.Name())
		}
	default:
		return cfg, fmt.Errorf("sim: heuristic must be sched.Immediate or sched.Batch, got %T", cfg.Heuristic)
	}
	return cfg, nil
}

// newSimCore validates cfg and builds the machine set, heuristic wiring
// and pruner.
func newSimCore(matrix *pet.Matrix, cfg Config) (*simulator, error) {
	cfg, err := checkConfig(matrix, cfg)
	if err != nil {
		return nil, err
	}
	s := &simulator{matrix: matrix, cfg: cfg, pruner: core.New(cfg.Prune), durRNG: randx.New(0)}
	if cfg.Mode == ImmediateMode {
		s.imm = cfg.Heuristic.(sched.Immediate)
	} else {
		s.bat = cfg.Heuristic.(sched.Batch)
	}
	s.machines = make([]*machine.Machine, len(cfg.MachineTypes))
	for j, mt := range cfg.MachineTypes {
		s.machines[j] = machine.New(j, mt, s.basePET(mt), matrix.BinWidth())
		if cfg.TailEps > 0 {
			s.machines[j].SetTailEps(cfg.TailEps)
		}
	}
	s.gen = make([]uint64, len(s.machines))
	s.slow = make([]float64, len(s.machines))
	for j := range s.slow {
		s.slow[j] = 1
	}
	s.res.PerTypeOnTime = make([]int, matrix.NumTaskTypes())
	s.res.PerTypeDropped = make([]int, matrix.NumTaskTypes())
	slots := cfg.Slots
	if cfg.Mode == ImmediateMode {
		slots = 0 // unbounded machine queues
	}
	s.ctx = sched.Context{
		Machines: s.machines,
		MeanExec: func(taskType, machineID int) float64 {
			return matrix.MeanExec(taskType, s.machines[machineID].TypeIndex())
		},
		Slots: slots,
	}
	return s, nil
}
