// Package admission is the online admission-control subsystem: the paper's
// pruning decision path — PET lookup, convolution against a machine's
// completion-time distribution, threshold test (Eq. 2) — exposed as a
// stateful "should I even enqueue this task?" service instead of a
// simulation.
//
// A Session owns a live platform: one machine.Machine per worker (with the
// incremental-PCT state PR 3 made O(1) and allocation-free on the
// anchor-hit path), a core.Pruner, and an immediate-mode mapping heuristic.
// Clients stream task arrivals through Decide and report finished work
// through Complete; every Decide is one mapping event of the simulator's
// Figure-5 loop run against real traffic:
//
//  1. reactive sweep — queued tasks whose deadlines passed are evicted,
//  2. Toggle consult — proactive dropping engages per the pruning config,
//  3. proactive sweep — queued tasks below the threshold are evicted,
//  4. heuristic pick — the arriving task's machine, per MCT/MET/KPB/RR,
//  5. chance test — ChanceIfEnqueued against the fairness- and
//     value-adjusted threshold decides accept / defer / drop.
//
// Steps 1-3 are core.Pruner.Sweep, the same function the simulator calls;
// the session's callback turns each dropped task into an Eviction. Steps
// 4-5 use the simulator's machine, pruner and sched primitives in the
// simulator's order (the golden tests in golden_test.go pin bitwise
// equivalence). Steady-state Decide+Complete cycles are allocation-free —
// task structs are recycled through a task.Arena, PMF buffers through the
// session's pmf.Scratch, and the eviction / started-task report slices are
// session-owned and reused.
//
// A Session is NOT safe for concurrent use; the Registry serializes HTTP
// access per session under a per-session lock.
package admission

import (
	"errors"
	"fmt"
	"math"

	"prunesim/internal/core"
	"prunesim/internal/machine"
	"prunesim/internal/pet"
	"prunesim/internal/pmf"
	"prunesim/internal/sched"
	"prunesim/internal/sim"
	"prunesim/internal/task"
)

// Config describes the platform a session admits tasks onto.
type Config struct {
	// Matrix is the PET matrix; nil selects the standard paper matrix.
	Matrix *pet.Matrix
	// MachineTypes assigns a PET machine-type column to each machine; nil
	// selects one machine of every type of the matrix.
	MachineTypes []int
	// Heuristic is an immediate-mode mapping heuristic name ("MCT", "MET",
	// "KPB", "RR", "OLB"); empty selects "MCT". Batch heuristics are
	// rejected: admission decisions are made one arrival at a time.
	Heuristic string
	// Slots caps pending (not yet running) tasks per machine queue; 0 means
	// unbounded, the immediate-mode default.
	Slots int
	// Prune configures the pruning mechanism. NumTaskTypes defaults to the
	// matrix's task-type count.
	Prune core.Config
}

// Verdict is an admission decision.
type Verdict string

// Verdicts.
const (
	// VerdictAccept: the task was enqueued on Decision.Machine.
	VerdictAccept Verdict = "accept"
	// VerdictDefer: the task was not enqueued; its chance of success is
	// currently below the threshold (or no machine can take it) but may
	// improve — the client should retry later.
	VerdictDefer Verdict = "defer"
	// VerdictDrop: the task was rejected for good — its deadline already
	// passed, or its chance is below the threshold with dropping engaged
	// and deferring disabled.
	VerdictDrop Verdict = "drop"
)

// Reason codes attached to defer/drop verdicts and evictions.
const (
	// ReasonLowChance: chance of success at or below the effective
	// threshold (Eq. 2 failed).
	ReasonLowChance = "low_chance"
	// ReasonDeadlineMissed: the deadline had already passed.
	ReasonDeadlineMissed = "deadline_missed"
	// ReasonNoMachine: no machine is up (or none has a free queue slot).
	ReasonNoMachine = "no_machine"
	// ReasonMachineFailed: the task was orphaned by a machine failure.
	ReasonMachineFailed = "machine_failed"
)

// TaskSpec is one arriving task as the client describes it.
type TaskSpec struct {
	// Type is the task-type index into the session's PET matrix.
	Type int `json:"type"`
	// Deadline is the task's hard deadline on the session's clock.
	Deadline float64 `json:"deadline"`
	// Value is the task's worth for value-aware pruning; 0 means 1.
	Value float64 `json:"value,omitempty"`
}

// Eviction reports a queued task pruned (or orphaned) as a side effect of a
// decision, completion or machine failure.
type Eviction struct {
	// TaskID is the evicted task.
	TaskID int `json:"task_id"`
	// Machine is the queue it was evicted from.
	Machine int `json:"machine"`
	// Reason is ReasonDeadlineMissed, ReasonLowChance or
	// ReasonMachineFailed.
	Reason string `json:"reason"`
}

// Decision is the verdict for one arriving task.
type Decision struct {
	// TaskID is the session-assigned ID of the task (cite it in Complete).
	TaskID int `json:"task_id"`
	// Verdict is accept, defer or drop.
	Verdict Verdict `json:"verdict"`
	// Reason qualifies defer/drop verdicts; empty on accept.
	Reason string `json:"reason,omitempty"`
	// Machine is the machine the task was (or would have been) mapped to;
	// -1 when no machine was pickable.
	Machine int `json:"machine"`
	// Chance is the task's chance of success on Machine (Eq. 2); -1 when no
	// machine was pickable.
	Chance float64 `json:"chance"`
	// Threshold is the fairness- and value-adjusted pruning threshold the
	// chance was tested against.
	Threshold float64 `json:"threshold"`
	// Started reports that the accepted task began executing immediately
	// (its machine was idle).
	Started bool `json:"started"`
	// Now is the session time the decision was made at (after monotonic
	// clamping).
	Now float64 `json:"now"`
	// Evicted lists tasks pruned from machine queues by this mapping
	// event's sweeps. The slice is session-owned and valid until the next
	// session call.
	Evicted []Eviction `json:"evicted,omitempty"`
}

// Completion is the result of reporting a finished task.
type Completion struct {
	// TaskID echoes the request.
	TaskID int `json:"task_id"`
	// State is the task's terminal pipeline state.
	State string `json:"state"`
	// OnTime reports a completion at or before the deadline.
	OnTime bool `json:"on_time"`
	// Stale marks a completion that no longer matched live state: the task
	// had already been evicted, or its machine failed after the task
	// started (generation mismatch). Stale completions mutate nothing.
	Stale bool `json:"stale"`
	// Now is the session time the completion was applied at.
	Now float64 `json:"now"`
	// Started lists task IDs that began executing as a result (the next
	// pending task of the freed machine). Session-owned; valid until the
	// next session call.
	Started []int `json:"started,omitempty"`
	// Evicted lists tasks pruned by the completion's mapping-event sweeps.
	// Session-owned; valid until the next session call.
	Evicted []Eviction `json:"evicted,omitempty"`
}

// Counters are a session's cumulative decision statistics.
type Counters struct {
	Decisions        uint64 `json:"decisions"`
	Accepted         uint64 `json:"accepted"`
	Deferred         uint64 `json:"deferred"`
	Dropped          uint64 `json:"dropped"`
	Completions      uint64 `json:"completions"`
	OnTime           uint64 `json:"on_time"`
	Late             uint64 `json:"late"`
	StaleCompletions uint64 `json:"stale_completions"`
	Evicted          uint64 `json:"evicted"`
}

// MachineState is one machine's view in a session snapshot.
type MachineState struct {
	ID            int     `json:"id"`
	Type          int     `json:"type"`
	Down          bool    `json:"down"`
	RunningTask   int     `json:"running_task"` // -1 when idle
	Pending       int     `json:"pending"`
	ExpectedReady float64 `json:"expected_ready"`
}

// Snapshot is a session's state at a point in time.
type Snapshot struct {
	Now      float64        `json:"now"`
	InFlight int            `json:"in_flight"`
	Machines []MachineState `json:"machines"`
	Counters Counters       `json:"counters"`
}

// Typed errors; the HTTP layer maps them onto the error envelope.
var (
	// ErrUnknownTask reports a Complete for a task ID the session has no
	// live record of (never decided, or already completed and recycled).
	ErrUnknownTask = errors.New("admission: unknown task")
	// ErrUnknownMachine reports a machine index outside the session.
	ErrUnknownMachine = errors.New("admission: unknown machine")
)

// liveTask is an in-flight task plus the generation of its machine at
// accept time: a completion whose machine failed in between carries a stale
// generation and is rejected instead of corrupting the queue state.
type liveTask struct {
	t   *task.Task
	gen uint64
}

// Session is one registered platform with live per-machine PCT state. Not
// safe for concurrent use (see Registry).
type Session struct {
	cfg      Config
	machines []*machine.Machine
	imm      sched.Immediate
	pruner   *core.Pruner
	ctx      sched.Context
	scratch  *pmf.Scratch
	closed   bool

	now      float64
	nextID   int
	live     map[int]liveTask
	tasks    task.Arena
	gen      []uint64
	counters Counters

	// Reused report buffers (returned slices alias these).
	evictBuf   []Eviction
	startedBuf []int
}

// NewSession validates cfg and builds an idle session. Close must be called
// when the session is abandoned so its PMF buffers return to the shared
// pool.
func NewSession(cfg Config) (*Session, error) {
	if cfg.Matrix == nil {
		cfg.Matrix = pet.Standard(pet.DefaultParams())
	}
	if cfg.MachineTypes == nil {
		cfg.MachineTypes = make([]int, cfg.Matrix.NumMachineTypes())
		for j := range cfg.MachineTypes {
			cfg.MachineTypes[j] = j
		}
	}
	if cfg.Heuristic == "" {
		cfg.Heuristic = "MCT"
	}
	h, _, err := sched.ByName(cfg.Heuristic)
	if err != nil {
		return nil, err
	}
	if cfg.Prune.NumTaskTypes == 0 {
		cfg.Prune.NumTaskTypes = cfg.Matrix.NumTaskTypes()
	}
	// A session is one immediate-mode mapping event per arrival, so the
	// simulator's checks for that mode are the session's checks.
	if err := sim.Validate(cfg.Matrix, sim.Config{
		Mode: sim.ImmediateMode, Heuristic: h, MachineTypes: cfg.MachineTypes, Slots: cfg.Slots, Prune: cfg.Prune,
	}); err != nil {
		return nil, err
	}

	s := &Session{
		cfg:    cfg,
		imm:    h.(sched.Immediate),
		pruner: core.New(cfg.Prune),
		live:   make(map[int]liveTask),
		gen:    make([]uint64, len(cfg.MachineTypes)),
	}
	s.scratch = pmf.GetScratch()
	s.machines = make([]*machine.Machine, len(cfg.MachineTypes))
	matrix := cfg.Matrix
	for j, mt := range cfg.MachineTypes {
		col := mt
		s.machines[j] = machine.New(j, col, func(tt int) *pmf.PMF { return matrix.PET(tt, col) }, matrix.BinWidth())
		s.machines[j].SetScratch(s.scratch)
	}
	s.ctx = sched.Context{
		Machines: s.machines,
		MeanExec: func(tt, j int) float64 { return matrix.MeanExec(tt, s.machines[j].TypeIndex()) },
		Slots:    cfg.Slots,
	}
	return s, nil
}

// Config returns the session's (defaulted) configuration.
func (s *Session) Config() Config { return s.cfg }

// Now returns the session clock (the largest time observed so far).
func (s *Session) Now() float64 { return s.now }

// InFlight returns the number of live (queued or running) tasks.
func (s *Session) InFlight() int { return len(s.live) }

// Close releases the session's PMF buffers back to the shared pool. The
// session must not be used afterwards.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, m := range s.machines {
		m.SetScratch(nil)
	}
	pmf.PutScratch(s.scratch)
	s.scratch = nil
}

// advance clamps the session clock monotonically forward and validates the
// caller-supplied time.
func (s *Session) advance(now float64) (float64, error) {
	if math.IsNaN(now) || math.IsInf(now, 0) {
		return 0, fmt.Errorf("admission: time must be finite, got %v", now)
	}
	if now < s.now {
		now = s.now
	}
	s.now = now
	return now, nil
}

// validateSpec bounds-checks one arriving task.
func (s *Session) validateSpec(spec TaskSpec) error {
	if spec.Type < 0 || spec.Type >= s.cfg.Matrix.NumTaskTypes() {
		return fmt.Errorf("admission: task type %d outside PET matrix (%d types)", spec.Type, s.cfg.Matrix.NumTaskTypes())
	}
	if math.IsNaN(spec.Deadline) || math.IsInf(spec.Deadline, 0) {
		return fmt.Errorf("admission: deadline must be finite, got %v", spec.Deadline)
	}
	if math.IsNaN(spec.Value) || math.IsInf(spec.Value, 0) || spec.Value < 0 {
		return fmt.Errorf("admission: value must be finite and non-negative, got %v", spec.Value)
	}
	return nil
}

// newTask materializes a task struct for spec from the session's arena.
func (s *Session) newTask(spec TaskSpec, now float64) *task.Task {
	t := s.tasks.New(s.nextID, spec.Type, now, spec.Deadline)
	s.nextID++
	if spec.Value > 0 {
		t.Value = spec.Value
	}
	t.Status = task.StatusBatchQueued
	return t
}

// evict records one pruned task in the reused eviction buffer and drops it
// from the live set.
func (s *Session) evict(t *task.Task, j int, reason string) {
	s.evictBuf = append(s.evictBuf, Eviction{TaskID: t.ID, Machine: j, Reason: reason})
	s.counters.Evicted++
	if _, ok := s.live[t.ID]; ok {
		delete(s.live, t.ID)
		s.tasks.Recycle(t)
	}
}

// swept is the pruner's Sweep callback: it reports a task dropped from
// machine queue j as an eviction.
func (s *Session) swept(t *task.Task, j int) {
	reason := ReasonDeadlineMissed
	if t.Status == task.StatusDroppedProactive {
		reason = ReasonLowChance
	}
	s.evict(t, j, reason)
}

// start begins execution on every idle machine with pending work (the
// client is expected to run a machine's queue head as soon as it is told
// to) and records the started task IDs in the reused buffer.
func (s *Session) start(now float64) {
	for _, m := range s.machines {
		if m.Down() || !m.Idle() || m.PendingCount() == 0 {
			continue
		}
		t := m.StartNext(now)
		s.startedBuf = append(s.startedBuf, t.ID)
	}
}

// Decide runs one mapping event for one arriving task and returns the
// verdict. now is the client's clock reading; it is clamped monotonically
// forward. The Decision's Evicted slice is session-owned and valid until
// the next session call.
func (s *Session) Decide(spec TaskSpec, now float64) (Decision, error) {
	now, err := s.advance(now)
	if err != nil {
		return Decision{}, err
	}
	if err := s.validateSpec(spec); err != nil {
		return Decision{}, err
	}
	s.evictBuf = s.evictBuf[:0]
	s.startedBuf = s.startedBuf[:0]
	s.pruner.Sweep(s.machines, now, s.swept)
	d := s.decideOne(spec, now)
	d.Evicted = s.evictBuf
	return d, nil
}

// DecideBatch runs ONE mapping event for a batch of arrivals: a single
// sweep and Toggle consult, then the arrivals are decided FCFS (each accept
// updates the queue state the next decision sees, exactly like the
// simulator's immediate-mode drain). The returned slice and the decisions'
// shared Evicted slice are valid until the next session call; sweeps'
// evictions are attached to the first decision.
func (s *Session) DecideBatch(specs []TaskSpec, now float64) ([]Decision, error) {
	now, err := s.advance(now)
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		if err := s.validateSpec(spec); err != nil {
			return nil, err
		}
	}
	s.evictBuf = s.evictBuf[:0]
	s.startedBuf = s.startedBuf[:0]
	s.pruner.Sweep(s.machines, now, s.swept)
	ds := make([]Decision, len(specs))
	for i, spec := range specs {
		ds[i] = s.decideOne(spec, now)
	}
	if len(ds) > 0 {
		ds[0].Evicted = s.evictBuf
	}
	return ds, nil
}

// decideOne is the per-arrival half of a mapping event: heuristic pick,
// chance-of-success test, verdict. The sweep must already have run.
func (s *Session) decideOne(spec TaskSpec, now float64) Decision {
	s.counters.Decisions++
	t := s.newTask(spec, now)
	d := Decision{TaskID: t.ID, Machine: -1, Chance: -1, Now: now}
	if t.Missed(now) {
		// Arrived dead: the reactive baseline drops it before any mapping.
		d.Verdict, d.Reason = VerdictDrop, ReasonDeadlineMissed
		d.Threshold = s.pruner.ValuedThreshold(t.Type, t.Value)
		s.counters.Dropped++
		s.pruner.RecordReactiveDrop(t.Type)
		t.Status = task.StatusDroppedReactive
		s.tasks.Recycle(t)
		return d
	}
	s.ctx.Now = now
	j := s.imm.Pick(&s.ctx, t)
	if j >= 0 && s.cfg.Slots > 0 && s.machines[j].PendingCount() >= s.cfg.Slots {
		// Immediate heuristics don't reason about queue caps; enforce the
		// session's per-machine slot limit here.
		j = -1
	}
	d.Threshold = s.pruner.ValuedThreshold(t.Type, t.Value)
	if j < 0 {
		d.Verdict, d.Reason = VerdictDefer, ReasonNoMachine
		s.counters.Deferred++
		s.tasks.Recycle(t)
		return d
	}
	chance := s.machines[j].ChanceIfEnqueued(t.Type, t.Deadline, now)
	d.Machine, d.Chance = j, chance
	switch {
	case s.pruner.ShouldDeferValued(chance, t.Type, t.Value):
		d.Verdict, d.Reason = VerdictDefer, ReasonLowChance
		s.counters.Deferred++
		s.tasks.Recycle(t)
	case s.pruner.ShouldDropValued(chance, t.Type, t.Value):
		d.Verdict, d.Reason = VerdictDrop, ReasonLowChance
		s.counters.Dropped++
		s.pruner.RecordProactiveDrop(t.Type)
		t.Status = task.StatusDroppedProactive
		s.tasks.Recycle(t)
	default:
		d.Verdict = VerdictAccept
		s.counters.Accepted++
		s.machines[j].Enqueue(t, now)
		s.live[t.ID] = liveTask{t: t, gen: s.gen[j]}
		s.start(now)
		d.Started = t.Status == task.StatusRunning
	}
	return d
}

// Complete reports that the client finished executing a task. The freed
// machine starts its next pending task (reported in Started), and the
// completion triggers a mapping-event sweep exactly like the simulator's
// completion events do. A completion for a task that was evicted or whose
// machine failed since it started is answered with Stale=true and mutates
// nothing.
func (s *Session) Complete(taskID int, now float64) (Completion, error) {
	now, err := s.advance(now)
	if err != nil {
		return Completion{}, err
	}
	lt, ok := s.live[taskID]
	if !ok {
		return Completion{}, fmt.Errorf("%w: no live task %d", ErrUnknownTask, taskID)
	}
	s.evictBuf = s.evictBuf[:0]
	s.startedBuf = s.startedBuf[:0]
	c := Completion{TaskID: taskID, Now: now}
	t := lt.t
	if t.Status != task.StatusRunning || t.Machine < 0 || lt.gen != s.gen[t.Machine] {
		// Evicted from a queue, or orphaned by a machine failure after it
		// started: the completion is stale. Acknowledge and forget.
		c.Stale = true
		c.State = t.Status.String()
		s.counters.StaleCompletions++
		delete(s.live, taskID)
		s.tasks.Recycle(t)
		return c, nil
	}
	m := s.machines[t.Machine]
	done := m.Complete(now)
	onTime := done.Status == task.StatusCompletedOnTime
	s.pruner.RecordCompletion(done.Type, onTime)
	s.counters.Completions++
	if onTime {
		s.counters.OnTime++
	} else {
		s.counters.Late++
	}
	c.State = done.Status.String()
	c.OnTime = onTime
	delete(s.live, taskID)
	s.tasks.Recycle(done)
	// A completion is a mapping event (Figure 5): sweep, then start the
	// freed machine's next task.
	s.pruner.Sweep(s.machines, now, s.swept)
	s.start(now)
	c.Started = s.startedBuf
	c.Evicted = s.evictBuf
	return c, nil
}

// FailMachine takes machine j down, orphaning its queue. Orphans are
// reported as evictions with ReasonMachineFailed; they stay in the live set
// with a stale generation so a racing Complete is answered Stale instead of
// corrupting state. The returned slice is session-owned and valid until the
// next session call.
func (s *Session) FailMachine(j int, now float64) ([]Eviction, error) {
	now, err := s.advance(now)
	if err != nil {
		return nil, err
	}
	if j < 0 || j >= len(s.machines) {
		return nil, fmt.Errorf("%w: machine %d of %d", ErrUnknownMachine, j, len(s.machines))
	}
	if s.machines[j].Down() {
		return nil, fmt.Errorf("admission: machine %d is already down", j)
	}
	s.evictBuf = s.evictBuf[:0]
	s.gen[j]++ // stale-stamp every in-flight completion for this machine
	for _, t := range s.machines[j].Fail() {
		// Orphans keep their live entry (old generation) so the client's
		// eventual Complete gets a Stale acknowledgement; the eviction
		// report tells the client to re-decide the work elsewhere.
		s.evictBuf = append(s.evictBuf, Eviction{TaskID: t.ID, Machine: j, Reason: ReasonMachineFailed})
		s.counters.Evicted++
	}
	return s.evictBuf, nil
}

// RejoinMachine brings a failed machine back, idle and empty.
func (s *Session) RejoinMachine(j int) error {
	if j < 0 || j >= len(s.machines) {
		return fmt.Errorf("%w: machine %d of %d", ErrUnknownMachine, j, len(s.machines))
	}
	if !s.machines[j].Down() {
		return fmt.Errorf("admission: machine %d is up", j)
	}
	s.machines[j].Rejoin()
	return nil
}

// Snapshot renders the session state for observability endpoints.
func (s *Session) Snapshot() Snapshot {
	snap := Snapshot{
		Now:      s.now,
		InFlight: len(s.live),
		Machines: make([]MachineState, len(s.machines)),
		Counters: s.counters,
	}
	for j, m := range s.machines {
		ms := MachineState{ID: j, Type: m.TypeIndex(), Down: m.Down(), RunningTask: -1, Pending: m.PendingCount()}
		if r := m.Running(); r != nil {
			ms.RunningTask = r.ID
		}
		if !m.Down() {
			ms.ExpectedReady = m.ExpectedReady(s.now)
		}
		snap.Machines[j] = ms
	}
	return snap
}

// Counters returns the session's cumulative statistics.
func (s *Session) Counters() Counters { return s.counters }
