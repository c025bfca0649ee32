// Package sched implements the ten mapping heuristics the paper evaluates
// (Figure 3): the immediate-mode heuristics RR, MET, MCT and KPB, the
// batch-mode two-phase heuristics MM (MinCompletion-MinCompletion), MSD
// (MinCompletion-SoonestDeadline) and MMU (MinCompletion-MaxUrgency) for
// heterogeneous systems, and FCFS-RR, EDF and SJF for homogeneous systems.
//
// Heuristics are deliberately unaware of the pruning mechanism: the paper's
// central claim is that the pruner plugs into an existing resource
// allocation system without altering its mapping heuristic. The simulator
// composes the two.
package sched

import (
	"fmt"
	"math"
	"slices"

	"prunesim/internal/machine"
	"prunesim/internal/task"
)

// Context is the read-only view of the resource-allocation state a heuristic
// maps against during one mapping event.
type Context struct {
	// Now is the current simulation time.
	Now float64
	// Machines are the worker nodes (index == machine ID).
	Machines []*machine.Machine
	// MeanExec returns the expected execution time of a task type on a
	// machine (by machine ID), read from the PET matrix. It must return the
	// same finite value for a given (type, machine index) for the Context's
	// whole life: batch heuristics memoize answers derived from it across
	// Map calls, keyed on machine state but not on MeanExec or Now (see
	// virtualState), and immediate heuristics memoize a per-type machine
	// ranking keyed only on the usable set (see ranking).
	MeanExec func(taskType, machineID int) float64
	// Slots caps the number of pending (not yet running) tasks per machine
	// queue in batch mode. Zero or negative means unbounded (immediate mode).
	Slots int

	// AssignBuf is the reusable backing array batch heuristics build their
	// returned assignments in; Map calls grow it as needed and store it back,
	// so a long simulation reaches a steady state where mapping events stop
	// allocating. It makes one Map result only valid until the next Map call
	// with the same Context (see Batch).
	AssignBuf []Assignment

	// vs is the batch heuristics' working state, kept across Map calls
	// (see virtualState). Copies of a Context share it.
	vs *virtualState
	// rank is the immediate heuristics' per-type machine ranking, kept
	// across Pick calls (see ranking). Copies of a Context share it.
	rank *ranking
}

// Usable reports whether machine j can accept work: a machine taken down by
// a platform failure event is invisible to every heuristic until it
// rejoins. With a static machine set (no platform events) this is always
// true.
func (c *Context) Usable(j int) bool { return !c.Machines[j].Down() }

// freeSlots returns how many more tasks machine j can accept. A down
// machine has none.
func (c *Context) freeSlots(j int) int {
	if c.Machines[j].Down() {
		return 0
	}
	if c.Slots <= 0 {
		return math.MaxInt32
	}
	return c.Slots - c.Machines[j].PendingCount()
}

// Assignment is one task-to-machine mapping decision, in the order the
// heuristic made it.
type Assignment struct {
	Task    *task.Task
	Machine int
}

// Batch is a batch-mode mapping heuristic: given the unmapped tasks of the
// arrival queue, produce assignments until machine queue slots are exhausted
// or no task remains. Implementations must not mutate tasks or machines;
// they reason over virtual state only.
//
// Map compacts unmapped in place: when it returns k assignments,
// unmapped[:len(unmapped)-k] holds the tasks it did not assign, in their
// original order, and what it leaves after that prefix is unspecified. A
// caller re-mapping the rest (the simulator after a deferral) truncates
// its slice instead of filtering out the assigned tasks.
//
// The returned slice is backed by the Context's reusable AssignBuf: it is
// valid only until the next Map call with the same Context, so callers must
// consume (or copy) it first.
type Batch interface {
	Name() string
	Map(ctx *Context, unmapped []*task.Task) []Assignment
}

// Immediate is an immediate-mode heuristic: pick a machine for one arriving
// task. Implementations may keep internal state (e.g. a round-robin cursor),
// so construct a fresh instance per simulation.
type Immediate interface {
	Name() string
	Pick(ctx *Context, t *task.Task) int
}

// virtualState tracks expected machine readiness while a batch heuristic
// builds its provisional mapping. Each Context owns one and every Map call
// reuses its buffers, so a mapping event in steady state allocates nothing.
//
// bestMachine's answer depends only on the task's type, ready, free and
// MeanExec, so memo keeps one answer per type, stamped with the generation
// gen of the (ready, free) vectors it was computed on. assign moves to a
// fresh generation (lastGen counts them). A Map call starting from vectors
// bitwise-equal to the previous call's start (startReady, startFree)
// resumes that start's generation, startGen: a deferral leaves every
// machine unchanged, so the re-mapping after it reuses the answers.
type virtualState struct {
	ready []float64
	free  []int
	total int

	memo                   []bestMemo
	gen, lastGen, startGen uint64
	startReady             []float64
	startFree              []int

	// picks and chosenMach are the per-round nominee table and committed
	// machines of mapPerMachineRounds. chosenStamp marks the positions of
	// unmapped a round or Map call assigned; round is the monotonically
	// increasing stamp that makes stale markers harmless across rounds and
	// Map calls.
	picks       []pick
	chosenMach  []int32
	chosenStamp []int64
	round       int64

	// order and keys are assignSorted's permutation of positions and
	// per-position sort keys; means caches MeanExec(type, 0) for SJF (NaN:
	// not read yet).
	order []int32
	keys  []float64
	means []float64
}

// bestMemo is one task type's bestMachine answer in generation gen.
type bestMemo struct {
	gen        uint64
	j          int
	completion float64
}

// pick is one machine's best nominee within a mapping round.
type pick struct {
	taskIdx            int
	primary, secondary float64
}

// newVirtualState loads ctx's virtual state from the machines.
func newVirtualState(ctx *Context) *virtualState {
	if ctx.vs == nil {
		ctx.vs = new(virtualState)
	}
	v, n := ctx.vs, len(ctx.Machines)
	same := v.startGen != 0 && len(v.ready) == n
	v.ready, v.startReady = slices.Grow(v.ready[:0], n)[:n], slices.Grow(v.startReady[:0], n)[:n]
	v.free, v.startFree = slices.Grow(v.free[:0], n)[:n], slices.Grow(v.startFree[:0], n)[:n]
	v.total = 0
	for j, m := range ctx.Machines {
		// A down or full machine gets no slots and an unreachable ready
		// time. Every batch heuristic reads ready[j] only where free[j] > 0,
		// so skipping ExpectedReady there changes no answer, and this one
		// branch hides down machines from all of them.
		f, r := max(ctx.freeSlots(j), 0), math.Inf(1)
		if f > 0 {
			r = m.ExpectedReady(ctx.Now)
		}
		same = same && math.Float64bits(r) == math.Float64bits(v.startReady[j]) && f == v.startFree[j]
		v.ready[j], v.startReady[j], v.free[j], v.startFree[j] = r, r, f, f
		v.total += f
	}
	if !same {
		v.lastGen++
		v.startGen = v.lastGen
	}
	v.gen = v.startGen
	return v
}

// roundBuffers sizes the mapPerMachineRounds working arrays.
func (v *virtualState) roundBuffers(nMachines, nTasks int) {
	v.picks = slices.Grow(v.picks[:0], nMachines)[:nMachines]
	v.chosenMach = slices.Grow(v.chosenMach[:0], nTasks)[:nTasks]
	v.chosenStamp = slices.Grow(v.chosenStamp[:0], nTasks)[:nTasks]
}

// typeMean returns MeanExec(typ, 0), reading it once per type: MeanExec is
// fixed for the Context's life (see Context).
func (v *virtualState) typeMean(ctx *Context, typ int) float64 {
	for typ >= len(v.means) {
		v.means = append(v.means, math.NaN())
	}
	if math.IsNaN(v.means[typ]) {
		v.means[typ] = ctx.MeanExec(typ, 0)
	}
	return v.means[typ]
}

// assign appends t to machine j's virtual queue, which starts a new
// generation of bestMachine answers.
func (v *virtualState) assign(ctx *Context, t *task.Task, j int) {
	v.ready[j] += ctx.MeanExec(t.Type, j)
	v.free[j]--
	v.total--
	v.lastGen++
	v.gen = v.lastGen
}

// bestMachine returns the machine with minimum expected completion time for
// t among machines with free virtual slots (lowest index wins ties), or -1
// if none.
func (v *virtualState) bestMachine(ctx *Context, t *task.Task) (j int, completion float64) {
	if t.Type >= len(v.memo) {
		v.memo = slices.Grow(v.memo, t.Type+1-len(v.memo))[:t.Type+1]
	}
	e := &v.memo[t.Type]
	if e.gen != v.gen {
		e.gen, e.j, e.completion = v.gen, -1, math.Inf(1)
		for m, f := range v.free {
			if f <= 0 {
				continue
			}
			if c := v.ready[m] + ctx.MeanExec(t.Type, m); c < e.completion {
				e.j, e.completion = m, c
			}
		}
	}
	return e.j, e.completion
}

// ByName constructs a heuristic by its paper name. Immediate-mode names
// return an Immediate; all others return a Batch. The second return reports
// whether the heuristic is immediate-mode.
func ByName(name string) (any, bool, error) {
	switch name {
	case "RR":
		return NewRR(), true, nil
	case "MET":
		return NewMET(), true, nil
	case "MCT":
		return NewMCT(), true, nil
	case "KPB":
		return NewKPB(DefaultKPBPercent), true, nil
	case "MM":
		return NewMM(), false, nil
	case "MSD":
		return NewMSD(), false, nil
	case "MMU":
		return NewMMU(), false, nil
	case "OLB":
		return NewOLB(), true, nil
	case "MaxMin":
		return NewMaxMin(), false, nil
	case "Sufferage":
		return NewSufferage(), false, nil
	case "FCFS-RR":
		return NewFCFSRR(), false, nil
	case "EDF":
		return NewEDF(), false, nil
	case "SJF":
		return NewSJF(), false, nil
	default:
		return nil, false, fmt.Errorf("sched: unknown heuristic %q", name)
	}
}

// Names lists all heuristic names accepted by ByName, grouped immediate
// first, then batch heterogeneous, then homogeneous. The first ten are the
// paper's heuristics; OLB, MaxMin and Sufferage are extra baselines from
// the same literature.
func Names() []string {
	return []string{
		"RR", "MET", "MCT", "KPB",
		"MM", "MSD", "MMU",
		"FCFS-RR", "EDF", "SJF",
		"OLB", "MaxMin", "Sufferage",
	}
}
