package sched

import (
	"math"

	"prunesim/internal/task"
)

// MM is MinCompletion-MinCompletion (Min-Min), the classic two-phase
// batch-mode heuristic. Phase one finds, for every unmapped task, the
// machine offering the minimum expected completion time; phase two commits
// the task-machine pair with the globally minimum completion time. The
// process repeats on the updated virtual queues until slots or tasks run
// out.
type MM struct{}

// NewMM returns the Min-Min heuristic.
func NewMM() *MM { return &MM{} }

// Name implements Batch.
func (*MM) Name() string { return "MM" }

// Map implements Batch.
func (*MM) Map(ctx *Context, unmapped []*task.Task) []Assignment {
	v := newVirtualState(ctx)
	remaining := unmapped
	out := ctx.AssignBuf[:0]
	for v.total > 0 && len(remaining) > 0 {
		bestI, bestJ, bestC := -1, -1, math.Inf(1)
		for i, t := range remaining {
			j, c, ok := v.memoBest(t.Type)
			if !ok {
				j, c = v.scanBest(ctx, t.Type)
			}
			if j >= 0 && c < bestC {
				bestI, bestJ, bestC = i, j, c
			}
		}
		if bestI < 0 {
			break
		}
		t := remaining[bestI]
		out = append(out, Assignment{Task: t, Machine: bestJ})
		v.assign(ctx, t, bestJ)
		// Closing the gap in place leaves the unassigned tasks in order at
		// the front of unmapped (the Batch contract).
		remaining = append(remaining[:bestI], remaining[bestI+1:]...)
	}
	ctx.AssignBuf = out
	return out
}

// MSD is MinCompletion-SoonestDeadline. Phase one is identical to MM; phase
// two selects, for each machine, the candidate task with the soonest
// deadline (ties broken by minimum expected completion time).
type MSD struct{}

// NewMSD returns the MSD heuristic.
func NewMSD() *MSD { return &MSD{} }

// Name implements Batch.
func (*MSD) Name() string { return "MSD" }

// Map implements Batch.
func (*MSD) Map(ctx *Context, unmapped []*task.Task) []Assignment {
	return mapPerMachineRounds(ctx, unmapped, func(t *task.Task, completion float64) (primary, secondary float64) {
		return t.Deadline, completion // minimize deadline, tie-break on completion
	})
}

// MMU is MinCompletion-MaxUrgency. Phase one is identical to MM; phase two
// selects, per machine, the candidate with maximum urgency
//
//	U = 1 / (deadline - E[completion])            (Eq. 3)
//
// Urgency grows without bound as the expected completion time approaches the
// deadline from below; a task whose expected completion already exceeds its
// deadline gets negative urgency and is naturally deprioritized (it is
// expected to fail regardless).
type MMU struct{}

// NewMMU returns the MMU heuristic.
func NewMMU() *MMU { return &MMU{} }

// Name implements Batch.
func (*MMU) Name() string { return "MMU" }

// Map implements Batch.
func (*MMU) Map(ctx *Context, unmapped []*task.Task) []Assignment {
	return mapPerMachineRounds(ctx, unmapped, func(t *task.Task, completion float64) (primary, secondary float64) {
		diff := t.Deadline - completion
		var urgency float64
		if diff == 0 {
			urgency = math.Inf(1)
		} else {
			urgency = 1 / diff
		}
		// mapPerMachineRounds minimizes, so negate urgency to maximize it.
		return -urgency, completion
	})
}

// mapPerMachineRounds implements the shared two-phase structure of MSD and
// MMU: each round, every unmapped task nominates its minimum-completion
// machine; each machine with free slots picks the nominee minimizing
// key(primary, secondary); the round's picks are committed and the process
// repeats until no assignment can be made. Each round compacts the tasks it
// did not commit to the front of unmapped (the Batch contract).
func mapPerMachineRounds(ctx *Context, unmapped []*task.Task,
	key func(t *task.Task, completion float64) (primary, secondary float64)) []Assignment {

	v := newVirtualState(ctx)
	remaining := unmapped
	v.roundBuffers(len(ctx.Machines), len(remaining))
	out := ctx.AssignBuf[:0]
	for v.total > 0 && len(remaining) > 0 {
		v.round++
		round := v.round
		// Phase 1: nominate the min-completion machine per task. A task
		// nominates exactly one machine, so every machine ends up with at
		// most one committed nominee per round.
		for j := range v.picks {
			v.picks[j].taskIdx = -1
		}
		nominated := false
		for i, t := range remaining {
			j, c, ok := v.memoBest(t.Type)
			if !ok {
				j, c = v.scanBest(ctx, t.Type)
			}
			if j < 0 {
				continue
			}
			p1, p2 := key(t, c)
			cur := &v.picks[j]
			if cur.taskIdx < 0 || p1 < cur.primary || (p1 == cur.primary && p2 < cur.secondary) {
				cur.taskIdx, cur.primary, cur.secondary = i, p1, p2
			}
			nominated = true
		}
		if !nominated {
			break
		}
		// Phase 2: commit one pick per machine, in machine order for
		// determinism. Committed candidate indices are stamped with the
		// round number; stale stamps from earlier rounds never match.
		for j := range v.picks {
			if i := v.picks[j].taskIdx; i >= 0 {
				v.chosenStamp[i] = round
				v.chosenMach[i] = int32(j)
			}
		}
		kept := remaining[:0]
		for i, t := range remaining {
			if v.chosenStamp[i] == round {
				if j := int(v.chosenMach[i]); v.free[j] > 0 {
					out = append(out, Assignment{Task: t, Machine: j})
					v.assign(ctx, t, j)
					continue
				}
			}
			kept = append(kept, t)
		}
		if len(kept) == len(remaining) {
			break
		}
		remaining = kept
	}
	ctx.AssignBuf = out
	return out
}
