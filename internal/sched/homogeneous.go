package sched

import (
	"sort"

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
	v := newVirtualState(ctx)
	queue := v.tasks(unmapped)
	sortTasksByArrival(queue)
	n := len(ctx.Machines)
	out := ctx.AssignBuf[:0]
	for _, t := range queue {
		if v.total <= 0 {
			break
		}
		// Find the next machine in cyclic order with a free slot.
		assigned := false
		for probe := 0; probe < n; probe++ {
			j := (f.next + probe) % n
			if v.free[j] > 0 {
				out = append(out, Assignment{Task: t, Machine: j})
				v.assign(ctx, t, j)
				f.next = (j + 1) % n
				assigned = true
				break
			}
		}
		if !assigned {
			break
		}
	}
	ctx.AssignBuf = out
	return out
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
	return assignSorted(ctx, unmapped, func(a, b *task.Task) bool { return a.Deadline < b.Deadline })
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
	return assignSorted(ctx, unmapped, func(a, b *task.Task) bool {
		return ctx.MeanExec(a.Type, 0) < ctx.MeanExec(b.Type, 0)
	})
}

// assignSorted maps tasks in the order induced by less, each to the machine
// with the minimum expected completion time, until slots run out.
func assignSorted(ctx *Context, unmapped []*task.Task, less func(a, b *task.Task) bool) []Assignment {
	v := newVirtualState(ctx)
	queue := v.tasks(unmapped)
	sort.SliceStable(queue, func(i, j int) bool { return less(queue[i], queue[j]) })
	out := ctx.AssignBuf[:0]
	for _, t := range queue {
		if v.total <= 0 {
			break
		}
		j, _ := v.bestMachine(ctx, t)
		if j < 0 {
			break
		}
		out = append(out, Assignment{Task: t, Machine: j})
		v.assign(ctx, t, j)
	}
	ctx.AssignBuf = out
	return out
}
