package sched

import (
	"math"
	"slices"

	"prunesim/internal/task"
)

// DefaultKPBPercent is the K of K-Percent-Best used when none is given:
// with the paper's eight machines it keeps the best 3 (ceil(8 * 0.30)).
const DefaultKPBPercent = 30.0

// RR assigns arriving tasks to machines in cyclic order, ignoring execution
// and completion times entirely. It is the weakest immediate-mode baseline;
// the paper notes it is the one heuristic probabilistic dropping can hurt,
// because RR keeps mapping low-chance tasks that dropping then removes.
type RR struct {
	next int
}

// NewRR returns a fresh round-robin heuristic with its cursor at machine 0.
func NewRR() *RR { return &RR{} }

// Name implements Immediate.
func (*RR) Name() string { return "RR" }

// Pick implements Immediate. Down machines are probed past without losing
// the cyclic fairness: the cursor advances exactly one position per mapped
// task, so with a static machine set the walk is identical to the classic
// modulo increment. Returns -1 when every machine is down.
func (r *RR) Pick(ctx *Context, _ *task.Task) int {
	n := len(ctx.Machines)
	for probe := 0; probe < n; probe++ {
		j := (r.next + probe) % n
		if ctx.Usable(j) {
			r.next = (j + 1) % n
			return j
		}
	}
	return -1
}

// MET maps each task to the machine with the Minimum Expected execution Time
// for its type, ignoring current load. On an inconsistently heterogeneous
// system this concentrates load on high-affinity machines.
type MET struct{}

// NewMET returns the MET heuristic.
func NewMET() *MET { return &MET{} }

// Name implements Immediate.
func (*MET) Name() string { return "MET" }

// Pick implements Immediate. The ranking's first machine is the usable
// machine with the lowest expected execution time, lowest index on ties.
func (*MET) Pick(ctx *Context, t *task.Task) int {
	if order := ctx.ranked(t.Type); len(order) > 0 {
		return order[0].j
	}
	return -1
}

// MCT maps each task to the machine with the Minimum expected Completion
// Time: the machine's expected ready time plus the task's expected execution
// time there.
type MCT struct{}

// NewMCT returns the MCT heuristic.
func NewMCT() *MCT { return &MCT{} }

// Name implements Immediate.
func (*MCT) Name() string { return "MCT" }

// Pick implements Immediate.
func (*MCT) Pick(ctx *Context, t *task.Task) int {
	best, bestC := -1, math.Inf(1)
	for j, m := range ctx.Machines {
		if !ctx.Usable(j) {
			continue
		}
		if c := m.ExpectedReady(ctx.Now) + ctx.MeanExec(t.Type, j); c < bestC {
			best, bestC = j, c
		}
	}
	return best
}

// KPB (K-Percent Best) blends MET and MCT: it applies the MCT rule but only
// among the K percent of machines with the lowest expected execution time
// for the arriving task's type.
type KPB struct {
	percent float64
}

// NewKPB returns a KPB heuristic keeping the given percentage of machines
// (0 < percent <= 100). It panics on an out-of-range percentage.
func NewKPB(percent float64) *KPB {
	if percent <= 0 || percent > 100 {
		panic("sched: KPB percent must be in (0, 100]")
	}
	return &KPB{percent: percent}
}

// Name implements Immediate.
func (*KPB) Name() string { return "KPB" }

// Pick implements Immediate. K percent is taken of the usable machines, so
// the heuristic keeps its paper semantics while a failed machine is down
// (and is unchanged when all machines are up).
func (k *KPB) Pick(ctx *Context, t *task.Task) int {
	order := ctx.ranked(t.Type)
	n := len(order)
	if n == 0 {
		return -1
	}
	keep := int(math.Ceil(k.percent / 100 * float64(n)))
	if keep < 1 {
		keep = 1
	}
	if keep > n {
		keep = n
	}
	best, bestC := -1, math.Inf(1)
	for _, r := range order[:keep] {
		if c := ctx.Machines[r.j].ExpectedReady(ctx.Now) + r.mean; c < bestC {
			best, bestC = r.j, c
		}
	}
	return best
}

// ranking memoizes, per task type, the usable machines in ascending
// MeanExec order. MeanExec is fixed for the Context's life, so an order
// changes only with the usable set: ranked compares that set on every call
// and starts a new generation when it differs (a failure, a rejoin or a
// joined machine), which lapses every type's order.
type ranking struct {
	usable []bool // the usable set generation gen was built on
	gen    uint64
	types  []rankMemo
}

// rankMemo is one task type's machine order in generation gen.
type rankMemo struct {
	gen   uint64
	order []rankedMachine
}

// rankedMachine is machine j with its expected execution time for the
// ranked type.
type rankedMachine struct {
	j    int
	mean float64
}

// ranked returns the usable machines ordered by ascending expected
// execution time for taskType, ascending machine index among equal times.
// The slice is owned by c and valid until the usable set changes.
func (c *Context) ranked(taskType int) []rankedMachine {
	if c.rank == nil {
		c.rank = new(ranking)
	}
	r, n := c.rank, len(c.Machines)
	stale := len(r.usable) != n
	r.usable = slices.Grow(r.usable[:0], n)[:n]
	for j, m := range c.Machines {
		if u := !m.Down(); u != r.usable[j] {
			r.usable[j], stale = u, true
		}
	}
	if stale {
		r.gen++
	}
	if taskType >= len(r.types) {
		r.types = slices.Grow(r.types, taskType+1-len(r.types))[:taskType+1]
	}
	e := &r.types[taskType]
	if e.gen != r.gen {
		e.gen, e.order = r.gen, slices.Grow(e.order[:0], n)
		for j, u := range r.usable {
			if !u {
				continue
			}
			// Insertion with a strict < keeps equal times in index order.
			m := rankedMachine{j, c.MeanExec(taskType, j)}
			p := len(e.order)
			e.order = append(e.order, m)
			for ; p > 0 && m.mean < e.order[p-1].mean; p-- {
				e.order[p] = e.order[p-1]
			}
			e.order[p] = m
		}
	}
	return e.order
}
