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
	// whole life: batch heuristics call it once per (type, machine) and keep
	// the answers in a dense table, and memoize answers derived from it
	// across Map calls, keyed on machine state but not on MeanExec or Now
	// (see virtualState); immediate heuristics memoize a per-type machine
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
// reads keeps each machine's last read across Map calls, stamped so that
// newVirtualState re-reads only the machines that moved (see machineRead).
// A deferral changes no machine, so the re-mapping after it reads none.
//
// bestMachine's answer depends only on the task's type, ready, free and
// MeanExec, so memo keeps one answer per type, stamped with the generation
// gen of the (ready, free) vectors it was computed on. assign moves to a
// fresh generation (lastGen counts them). A Map call starting from vectors
// bitwise-equal to the previous call's start resumes that start's
// generation, startGen, and so reuses its answers.
type virtualState struct {
	ready []float64
	free  []int
	total int

	reads []machineRead
	slots int

	memo                   []bestMemo
	gen, lastGen, startGen uint64

	// means is the row-major MeanExec table, means[typ*len(ready)+j],
	// with a row per memo slot; memo[typ].hasMeans marks the rows read.
	means []float64

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
	// per-position sort keys.
	order []int32
	keys  []float64
}

// machineRead is one machine's free slots and ready time as newVirtualState
// last read them. They still hold while the machine is the same pointer at
// the same Version (taken after the read) and, when the read depended on
// Now, at the same Now. Only a free machine with an empty queue reads
// differently at another Now: a non-empty queue's ExpectedReady is the mean
// of a chain anchored when it was built, and a full or down machine reads
// +Inf.
type machineRead struct {
	m      *machine.Machine
	ver    uint64
	now    float64
	ready  float64
	free   int32
	nowDep bool
}

// bestMemo is one task type's bestMachine answer in generation gen, and
// whether its row of the mean table is filled.
type bestMemo struct {
	gen        uint64
	completion float64
	j          int32
	hasMeans   bool
}

// pick is one machine's best nominee within a mapping round.
type pick struct {
	taskIdx            int
	primary, secondary float64
}

// newVirtualState loads ctx's virtual state, re-reading only the machines
// whose read no longer holds.
func newVirtualState(ctx *Context) *virtualState {
	if ctx.vs == nil {
		ctx.vs = new(virtualState)
	}
	v := ctx.vs
	if len(v.reads) != len(ctx.Machines) || v.slots != ctx.Slots {
		v.reset(len(ctx.Machines), ctx.Slots)
	}
	same := v.startGen != 0
	v.total = 0
	for j, m := range ctx.Machines {
		rd := &v.reads[j]
		if rd.m != m || rd.ver != m.Version() || (rd.nowDep && rd.now != ctx.Now) {
			// A down or full machine gets no slots and an unreachable ready
			// time. Every batch heuristic reads ready[j] only where
			// free[j] > 0, so skipping ExpectedReady there changes no
			// answer, and this one branch hides down machines from all of
			// them.
			f, r := max(ctx.freeSlots(j), 0), math.Inf(1)
			if f > 0 {
				r = m.ExpectedReady(ctx.Now)
			}
			same = same && math.Float64bits(r) == math.Float64bits(rd.ready) && f == int(rd.free)
			*rd = machineRead{m: m, ver: m.Version(), now: ctx.Now, ready: r, free: int32(f), nowDep: f > 0 && m.PendingCount() == 0}
		}
		v.ready[j], v.free[j] = rd.ready, int(rd.free)
		v.total += int(rd.free)
	}
	if !same {
		v.lastGen++
		v.startGen = v.lastGen
	}
	v.gen = v.startGen
	return v
}

// reset sizes the per-machine state for n machines under a slot cap,
// forgets every read and starts a new generation. A new machine count also
// forgets the mean table, whose rows are n wide.
func (v *virtualState) reset(n, slots int) {
	if len(v.reads) != n {
		v.ready, v.free, v.reads = make([]float64, n), make([]int, n), make([]machineRead, n)
		for i := range v.memo {
			v.memo[i].hasMeans = false
		}
	}
	clear(v.reads)
	v.slots, v.startGen = slots, 0
}

// roundBuffers sizes the mapPerMachineRounds working arrays.
func (v *virtualState) roundBuffers(nMachines, nTasks int) {
	if len(v.picks) != nMachines {
		v.picks = make([]pick, nMachines)
	}
	v.chosenMach = slices.Grow(v.chosenMach[:0], nTasks)[:nTasks]
	v.chosenStamp = slices.Grow(v.chosenStamp[:0], nTasks)[:nTasks]
}

// assign appends t to machine j's virtual queue, which starts a new
// generation of bestMachine answers.
func (v *virtualState) assign(ctx *Context, t *task.Task, j int) {
	v.ready[j] += v.meanRow(ctx, t.Type)[j]
	v.free[j]--
	v.total--
	v.lastGen++
	v.gen = v.lastGen
}

// bestMachine returns the machine with minimum expected completion time for
// t among machines with free virtual slots (lowest index wins ties), or -1
// if none. Hot loops call its two halves themselves, so the memo hit
// inlines there.
func (v *virtualState) bestMachine(ctx *Context, t *task.Task) (j int, completion float64) {
	if j, c, ok := v.memoBest(t.Type); ok {
		return j, c
	}
	return v.scanBest(ctx, t.Type)
}

// memoBest returns bestMachine's memoized answer for a task type, if it is
// of the current generation.
func (v *virtualState) memoBest(typ int) (j int, completion float64, ok bool) {
	if typ < len(v.memo) {
		if e := &v.memo[typ]; e.gen == v.gen {
			return int(e.j), e.completion, true
		}
	}
	return 0, 0, false
}

// scanBest computes and memoizes bestMachine's answer for a task type. It
// checks for a filled row itself: meanRow does not inline, and this is the
// scan every new generation runs per type.
func (v *virtualState) scanBest(ctx *Context, typ int) (int, float64) {
	if typ >= len(v.memo) || !v.memo[typ].hasMeans {
		v.fillMeans(ctx, typ)
	}
	n := len(v.ready)
	row, e := v.means[typ*n:(typ+1)*n], &v.memo[typ]
	e.gen, e.j, e.completion = v.gen, -1, math.Inf(1)
	for m, f := range v.free {
		if f <= 0 {
			continue
		}
		if c := v.ready[m] + row[m]; c < e.completion {
			e.j, e.completion = int32(m), c
		}
	}
	return int(e.j), e.completion
}

// minMemoTypes is the memo's first capacity, in task types: the paper's
// twelve types then need one memo and one mean table allocation per
// Context, not a chain of growths.
const minMemoTypes = 16

// meanRow returns MeanExec(typ, j) for every machine j, calling MeanExec
// once per (type, machine) for the Context's life: its answers are fixed
// (see Context).
func (v *virtualState) meanRow(ctx *Context, typ int) []float64 {
	if typ >= len(v.memo) || !v.memo[typ].hasMeans {
		v.fillMeans(ctx, typ)
	}
	n := len(v.ready)
	return v.means[typ*n : (typ+1)*n]
}

// fillMeans grows the memo and the mean table to cover typ and fills its
// row.
func (v *virtualState) fillMeans(ctx *Context, typ int) {
	n := len(v.ready)
	if typ >= len(v.memo) {
		v.memo = slices.Grow(v.memo, max(typ+1, minMemoTypes)-len(v.memo))[:typ+1]
	}
	// One table row per memo slot, so the table grows only when the memo
	// does.
	if size := cap(v.memo) * n; len(v.means) < size {
		v.means = slices.Grow(v.means, size-len(v.means))[:size]
	}
	for j := range n {
		v.means[typ*n+j] = ctx.MeanExec(typ, j)
	}
	v.memo[typ].hasMeans = true
}

// heuristics is every heuristic ByName accepts, in Names order: immediate
// first, then batch heterogeneous, then homogeneous. The first ten are the
// paper's heuristics; OLB, MaxMin and Sufferage are extra baselines from
// the same literature.
var heuristics = []struct {
	name      string
	immediate bool
	build     func() any
}{
	{"RR", true, func() any { return NewRR() }},
	{"MET", true, func() any { return NewMET() }},
	{"MCT", true, func() any { return NewMCT() }},
	{"KPB", true, func() any { return NewKPB(DefaultKPBPercent) }},
	{"MM", false, func() any { return NewMM() }},
	{"MSD", false, func() any { return NewMSD() }},
	{"MMU", false, func() any { return NewMMU() }},
	{"FCFS-RR", false, func() any { return NewFCFSRR() }},
	{"EDF", false, func() any { return NewEDF() }},
	{"SJF", false, func() any { return NewSJF() }},
	{"OLB", true, func() any { return NewOLB() }},
	{"MaxMin", false, func() any { return NewMaxMin() }},
	{"Sufferage", false, func() any { return NewSufferage() }},
}

// ByName constructs a heuristic by its paper name. Immediate-mode names
// return an Immediate; all others return a Batch. The second return reports
// whether the heuristic is immediate-mode.
func ByName(name string) (any, bool, error) {
	for _, h := range heuristics {
		if h.name == name {
			return h.build(), h.immediate, nil
		}
	}
	return nil, false, fmt.Errorf("sched: unknown heuristic %q", name)
}

// Names lists all heuristic names accepted by ByName, in the order of
// heuristics.
func Names() []string {
	names := make([]string, len(heuristics))
	for i, h := range heuristics {
		names[i] = h.name
	}
	return names
}
