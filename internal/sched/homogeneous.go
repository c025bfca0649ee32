package sched

import (
	"slices"

	"prunesim/internal/task"
)

// FCFSRR is First-Come-First-Served Round-Robin for homogeneous systems:
// tasks are taken in arrival order and placed on machines in cyclic order,
// skipping machines with no free queue slot. The cursor persists across
// mapping events.
type FCFSRR struct {
	next int
}

// NewFCFSRR returns a fresh FCFS-RR heuristic.
func NewFCFSRR() *FCFSRR { return &FCFSRR{} }

// Name implements Batch.
func (*FCFSRR) Name() string { return "FCFS-RR" }

// Map implements Batch.
func (f *FCFSRR) Map(ctx *Context, unmapped []*task.Task) []Assignment {
	// Task IDs are arrival order (and exact as float64 keys).
	byArrival := func(_ *Context, _ *virtualState, t *task.Task) float64 { return float64(t.ID) }
	return assignSorted(ctx, unmapped, byArrival, func(ctx *Context, v *virtualState, _ *task.Task) int {
		// The next machine in cyclic order with a free slot.
		n := len(ctx.Machines)
		for probe := 0; probe < n; probe++ {
			if j := (f.next + probe) % n; v.free[j] > 0 {
				f.next = (j + 1) % n
				return j
			}
		}
		return -1
	})
}

// EDF is Earliest Deadline First: the arrival queue is sorted by deadline,
// and each head task goes to the machine with the minimum expected
// completion time. Functionally the homogeneous analogue of MSD.
type EDF struct{}

// NewEDF returns the EDF heuristic.
func NewEDF() *EDF { return &EDF{} }

// Name implements Batch.
func (*EDF) Name() string { return "EDF" }

// Map implements Batch.
func (*EDF) Map(ctx *Context, unmapped []*task.Task) []Assignment {
	byDeadline := func(_ *Context, _ *virtualState, t *task.Task) float64 { return t.Deadline }
	return assignSorted(ctx, unmapped, byDeadline, minCompletion)
}

// SJF is Shortest Job First: the arrival queue is sorted by expected
// execution time, and each head task goes to the machine with the minimum
// expected completion time. Functionally the homogeneous analogue of MM.
type SJF struct{}

// NewSJF returns the SJF heuristic.
func NewSJF() *SJF { return &SJF{} }

// Name implements Batch.
func (*SJF) Name() string { return "SJF" }

// Map implements Batch.
func (*SJF) Map(ctx *Context, unmapped []*task.Task) []Assignment {
	// On a homogeneous system the expected execution time is
	// machine-independent; use machine 0's column.
	byMean := func(ctx *Context, v *virtualState, t *task.Task) float64 { return v.meanRow(ctx, t.Type)[0] }
	return assignSorted(ctx, unmapped, byMean, minCompletion)
}

// minCompletion picks the machine with the minimum expected completion
// time for t, or -1 if none has a free slot.
func minCompletion(ctx *Context, v *virtualState, t *task.Task) int {
	j, _ := v.bestMachine(ctx, t)
	return j
}

// assignSorted maps tasks in ascending key order, ties in queue order (the
// order sort.SliceStable gives), each to the machine pick returns, until
// slots run out or pick returns -1. It sorts a permutation of positions,
// stamps the positions it assigns and compacts the rest to the front of
// unmapped (the Batch contract).
func assignSorted(ctx *Context, unmapped []*task.Task,
	key func(ctx *Context, v *virtualState, t *task.Task) float64,
	pick func(ctx *Context, v *virtualState, t *task.Task) int) []Assignment {

	v := newVirtualState(ctx)
	n := len(unmapped)
	v.order = slices.Grow(v.order[:0], n)[:n]
	v.keys = slices.Grow(v.keys[:0], n)[:n]
	v.chosenStamp = slices.Grow(v.chosenStamp[:0], n)[:n]
	v.round++
	for i, t := range unmapped {
		v.order[i], v.keys[i] = int32(i), key(ctx, v, t)
	}
	keys := v.keys
	slices.SortFunc(v.order, func(a, b int32) int {
		switch {
		case keys[a] < keys[b]:
			return -1
		case keys[b] < keys[a]:
			return 1
		}
		return int(a - b)
	})
	out := ctx.AssignBuf[:0]
	for _, i := range v.order {
		if v.total <= 0 {
			break
		}
		t := unmapped[i]
		j := pick(ctx, v, t)
		if j < 0 {
			break
		}
		out = append(out, Assignment{Task: t, Machine: j})
		v.assign(ctx, t, j)
		v.chosenStamp[i] = v.round
	}
	kept := unmapped[:0]
	for i, t := range unmapped {
		if v.chosenStamp[i] != v.round {
			kept = append(kept, t)
		}
	}
	ctx.AssignBuf = out
	return out
}
