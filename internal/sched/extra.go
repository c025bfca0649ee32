package sched

import (
	"math"

	"prunesim/internal/task"
)

// The heuristics in this file are not evaluated in the paper's figures but
// come from the same literature its Figure 3 draws on (Braun et al.'s
// eleven-heuristic comparison and Maheswaran et al.'s dynamic mapping
// study). They are included as additional baselines for the benchmark
// harness and for downstream users.

// OLB is Opportunistic Load Balancing: an immediate-mode heuristic that
// assigns each arriving task to the machine expected to become available
// soonest, ignoring execution times entirely. It keeps machines busy but is
// blind to task-machine affinity.
type OLB struct{}

// NewOLB returns the OLB heuristic.
func NewOLB() *OLB { return &OLB{} }

// Name implements Immediate.
func (*OLB) Name() string { return "OLB" }

// Pick implements Immediate.
func (*OLB) Pick(ctx *Context, _ *task.Task) int {
	best, bestReady := -1, math.Inf(1)
	for j, m := range ctx.Machines {
		if !ctx.Usable(j) {
			continue
		}
		if r := m.ExpectedReady(ctx.Now); r < bestReady {
			best, bestReady = j, r
		}
	}
	return best
}

// MaxMin is MinCompletion-MaxCompletion: phase one finds each task's
// minimum-completion machine, phase two commits the pair with the LARGEST
// such completion time. Long tasks are placed first, so they are not
// starved by swarms of short tasks — the classic complement of Min-Min.
type MaxMin struct{}

// NewMaxMin returns the Max-Min heuristic.
func NewMaxMin() *MaxMin { return &MaxMin{} }

// Name implements Batch.
func (*MaxMin) Name() string { return "MaxMin" }

// Map implements Batch.
func (*MaxMin) Map(ctx *Context, unmapped []*task.Task) []Assignment {
	v := newVirtualState(ctx)
	remaining := unmapped
	out := ctx.AssignBuf[:0]
	for v.total > 0 && len(remaining) > 0 {
		bestI, bestJ, bestC := -1, -1, math.Inf(-1)
		for i, t := range remaining {
			j, c := v.bestMachine(ctx, t)
			if j >= 0 && c > bestC {
				bestI, bestJ, bestC = i, j, c
			}
		}
		if bestI < 0 {
			break
		}
		t := remaining[bestI]
		out = append(out, Assignment{Task: t, Machine: bestJ})
		v.assign(ctx, t, bestJ)
		remaining = append(remaining[:bestI], remaining[bestI+1:]...)
	}
	ctx.AssignBuf = out
	return out
}

// Sufferage assigns, each round, the task that would "suffer" most if
// denied its best machine: sufferage = second-best completion minus best
// completion. Tasks contending for the same machine are resolved in favour
// of the highest sufferage.
type Sufferage struct{}

// NewSufferage returns the Sufferage heuristic.
func NewSufferage() *Sufferage { return &Sufferage{} }

// Name implements Batch.
func (*Sufferage) Name() string { return "Sufferage" }

// Map implements Batch.
func (*Sufferage) Map(ctx *Context, unmapped []*task.Task) []Assignment {
	return mapPerMachineRounds(ctx, unmapped, func(t *task.Task, completion float64) (primary, secondary float64) {
		// mapPerMachineRounds nominates each task on its best machine and
		// minimizes the primary key per machine; negate sufferage to pick
		// the maximum-sufferage contender.
		return -sufferageOf(ctx, t, completion), completion
	})
}

// sufferageOf computes second-best minus best completion for t given the
// *current real* machine states. The virtual bookkeeping inside the mapping
// rounds shifts completions slightly; using real state keeps the metric
// stable within one mapping event, matching the classic formulation that
// computes sufferage against the state at the start of the round.
func sufferageOf(ctx *Context, t *task.Task, best float64) float64 {
	second := math.Inf(1)
	for j, m := range ctx.Machines {
		if !ctx.Usable(j) {
			continue
		}
		c := m.ExpectedReady(ctx.Now) + ctx.MeanExec(t.Type, j)
		if c > best && c < second {
			second = c
		}
	}
	if math.IsInf(second, 1) {
		return 0
	}
	return second - best
}
