package sched

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"prunesim/internal/machine"
	"prunesim/internal/pmf"
	"prunesim/internal/task"
)

// The tests in this file pin the memoized batch mapping (per-Context
// virtual state, per-type bestMachine answers reused across Map calls) to
// a naive recomputation. A replay imitates the simulator's batch mapping
// event: Map, defer a random subset of the answer, enqueue the rest, and
// Map again over what is left, all on one shared Context.

// replayFixture is a random batch-mode platform: machines (some down, some
// full, many with tied ready times) and a pool of tasks over few types with
// tied deadlines.
type replayFixture struct {
	ctx   *Context
	tasks []*task.Task
	rng   *rand.Rand
}

// newReplayFixture builds the platform for seed. Two fixtures with equal
// arguments are identical but share nothing, so a heuristic and its
// reference can each mutate their own.
func newReplayFixture(seed uint64, nMachines, nTasks, nTypes int) *replayFixture {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	// Means are multiples of the 0.5 bin width from a small set, so PCTs
	// are exact and ready times tie across machines.
	means := make([][]float64, nTypes)
	for i := range means {
		means[i] = make([]float64, nMachines)
		for j := range means[i] {
			means[i][j] = 0.5 * float64(1+rng.IntN(6))
		}
	}
	slots := 1 + rng.IntN(3)
	if rng.IntN(8) == 0 {
		slots = 0 // unbounded queues
	}
	machines := make([]*machine.Machine, nMachines)
	for j := range machines {
		j := j
		machines[j] = machine.New(j, j, func(tt int) *pmf.PMF { return pmf.Delta(means[tt][j], 0.5) }, 0.5)
	}
	ctx := &Context{
		Machines: machines,
		MeanExec: func(tt, j int) float64 { return means[tt][j] },
		Slots:    slots,
	}
	id := 0
	newTask := func() *task.Task {
		t := task.New(id, rng.IntN(nTypes), 0, float64(2+rng.IntN(8)))
		id++
		return t
	}
	for j, m := range machines {
		switch rng.IntN(5) {
		case 0:
			m.Fail()
		case 1: // full (or loaded, with unbounded queues)
			for k := 0; k < max(slots, 2); k++ {
				m.Enqueue(newTask(), 0)
			}
		case 2: // busy with one pending task
			m.Enqueue(newTask(), 0)
			m.StartNext(0)
			if slots != 1 || j%2 == 0 {
				m.Enqueue(newTask(), 0)
			}
		}
	}
	id = 1000
	tasks := make([]*task.Task, nTasks)
	for i := range tasks {
		tasks[i] = newTask()
	}
	return &replayFixture{ctx: ctx, tasks: tasks, rng: rng}
}

// hasFree reports whether any machine of ctx can take a task.
func hasFree(ctx *Context) bool {
	for j := range ctx.Machines {
		if ctx.freeSlots(j) > 0 {
			return true
		}
	}
	return false
}

// replay runs the batch mapping event over f twice (at two successive
// times) and calls check with each Map answer, copied, and the arguments
// it was computed from. A task is deferred with probability 1/2. Map gets
// a clone of the arguments, and replay checks that it compacted the tasks
// it did not assign to the clone's front, in order (the Batch contract).
func (f *replayFixture) replay(t *testing.T, h Batch, check func(now float64, avail []*task.Task, got []Assignment)) {
	t.Helper()
	avail := slices.Clone(f.tasks)
	for _, now := range []float64{0, 1.5} {
		f.ctx.Now = now
		pending := slices.Clone(avail)
		for len(pending) > 0 && hasFree(f.ctx) {
			in := slices.Clone(pending)
			got := slices.Clone(h.Map(f.ctx, in))
			rest := slices.DeleteFunc(slices.Clone(pending), func(t *task.Task) bool {
				return slices.ContainsFunc(got, func(a Assignment) bool { return a.Task == t })
			})
			if len(rest) != len(pending)-len(got) || !slices.Equal(in[:len(rest)], rest) {
				t.Fatalf("%s at now=%v: Map left %v at the front of its input, want the unassigned %v",
					h.Name(), now, taskIDs(in[:max(len(in)-len(got), 0)]), taskIDs(rest))
			}
			check(now, pending, got) // may reorder pending (the fresh twin compacts it)
			if len(got) == 0 {
				break
			}
			for _, a := range got {
				if f.rng.IntN(2) == 0 {
					continue // deferred
				}
				f.ctx.Machines[a.Machine].Enqueue(a.Task, now)
				avail = slices.DeleteFunc(avail, func(t *task.Task) bool { return t == a.Task })
			}
			pending = rest
		}
	}
}

// taskIDs lists the IDs of ts.
func taskIDs(ts []*task.Task) []int {
	ids := make([]int, len(ts))
	for i, t := range ts {
		ids[i] = t.ID
	}
	return ids
}

// naiveState recomputes the virtual machine state from scratch, reading
// every usable machine's expected ready time.
func naiveState(ctx *Context) (ready []float64, free []int) {
	ready = make([]float64, len(ctx.Machines))
	free = make([]int, len(ctx.Machines))
	for j, m := range ctx.Machines {
		ready[j] = math.Inf(1)
		if m.Down() {
			continue
		}
		ready[j] = m.ExpectedReady(ctx.Now)
		free[j] = math.MaxInt32
		if ctx.Slots > 0 {
			free[j] = max(ctx.Slots-m.PendingCount(), 0)
		}
	}
	return ready, free
}

// naiveBest scans every machine for t's minimum completion time; the
// lowest index wins ties.
func naiveBest(ctx *Context, ready []float64, free []int, t *task.Task) (int, float64) {
	best, bestC := -1, math.Inf(1)
	for j := range ready {
		if free[j] > 0 {
			if c := ready[j] + ctx.MeanExec(t.Type, j); c < bestC {
				best, bestC = j, c
			}
		}
	}
	return best, bestC
}

// naiveMM is Min-Min recomputed per task, per round.
func naiveMM(ctx *Context, unmapped []*task.Task) []Assignment {
	ready, free := naiveState(ctx)
	remaining := slices.Clone(unmapped)
	var out []Assignment
	for len(remaining) > 0 {
		bestI, bestJ, bestC := -1, -1, math.Inf(1)
		for i, t := range remaining {
			if j, c := naiveBest(ctx, ready, free, t); j >= 0 && c < bestC {
				bestI, bestJ, bestC = i, j, c
			}
		}
		if bestI < 0 {
			break
		}
		t := remaining[bestI]
		out = append(out, Assignment{Task: t, Machine: bestJ})
		ready[bestJ] += ctx.MeanExec(t.Type, bestJ)
		free[bestJ]--
		remaining = slices.Delete(remaining, bestI, bestI+1)
	}
	return out
}

// naiveRounds is the MSD/MMU round structure recomputed per task: each
// task nominates its best machine, each machine keeps the nominee with the
// smallest key (earliest nominee on ties), and picks commit in task order.
func naiveRounds(ctx *Context, unmapped []*task.Task, key func(t *task.Task, c float64) (float64, float64)) []Assignment {
	ready, free := naiveState(ctx)
	remaining := slices.Clone(unmapped)
	var out []Assignment
	for len(remaining) > 0 {
		type nominee struct {
			i      int
			p1, p2 float64
		}
		picks := map[int]nominee{}
		for i, t := range remaining {
			j, c := naiveBest(ctx, ready, free, t)
			if j < 0 {
				continue
			}
			p1, p2 := key(t, c)
			if cur, ok := picks[j]; !ok || p1 < cur.p1 || (p1 == cur.p1 && p2 < cur.p2) {
				picks[j] = nominee{i, p1, p2}
			}
		}
		var kept []*task.Task
		for i, t := range remaining {
			j := -1
			for m, n := range picks {
				if n.i == i {
					j = m
				}
			}
			if j >= 0 {
				out = append(out, Assignment{Task: t, Machine: j})
				ready[j] += ctx.MeanExec(t.Type, j)
				free[j]--
				continue
			}
			kept = append(kept, t)
		}
		if len(kept) == len(remaining) {
			break
		}
		remaining = kept
	}
	return out
}

func urgencyKey(t *task.Task, c float64) (float64, float64) {
	diff := t.Deadline - c
	if diff == 0 {
		return math.Inf(-1), c
	}
	return -1 / diff, c
}

func sameAssignments(t *testing.T, name string, now float64, got, want []Assignment) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s at now=%v: %d assignments, want %d\n got %v\nwant %v", name, now, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s at now=%v: assignment %d = (task %d, machine %d), want (task %d, machine %d)",
				name, now, i, got[i].Task.ID, got[i].Machine, want[i].Task.ID, want[i].Machine)
		}
	}
}

// checkBatchReplay replays every batch heuristic on the fixture for the
// given shape. MM, MSD and MMU are checked against their naive
// recomputation; the others against themselves on a fresh Context per
// call.
func checkBatchReplay(t *testing.T, seed uint64, nMachines, nTasks, nTypes int) {
	naive := map[string]func(*Context, []*task.Task) []Assignment{
		"MM": naiveMM,
		"MSD": func(ctx *Context, ts []*task.Task) []Assignment {
			return naiveRounds(ctx, ts, func(t *task.Task, c float64) (float64, float64) { return t.Deadline, c })
		},
		"MMU": func(ctx *Context, ts []*task.Task) []Assignment { return naiveRounds(ctx, ts, urgencyKey) },
	}
	for _, name := range []string{"MM", "MSD", "MMU", "MaxMin", "Sufferage", "FCFS-RR", "EDF", "SJF"} {
		h, _, _ := ByName(name)
		twin, _, _ := ByName(name) // FCFS-RR keeps a cursor: the fresh-Context run needs its own
		f := newReplayFixture(seed, nMachines, nTasks, nTypes)
		f.replay(t, h.(Batch), func(now float64, avail []*task.Task, got []Assignment) {
			var want []Assignment
			if ref, ok := naive[name]; ok {
				want = ref(f.ctx, avail)
			} else {
				fresh := &Context{Now: now, Machines: f.ctx.Machines, MeanExec: f.ctx.MeanExec, Slots: f.ctx.Slots}
				want = twin.(Batch).Map(fresh, avail)
			}
			sameAssignments(t, name, now, got, want)
		})
	}
}

func TestBatchMapDifferential(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 1))
		checkBatchReplay(t, seed, 1+rng.IntN(8), 1+rng.IntN(40), 1+rng.IntN(12))
	}
}

func FuzzBatchMap(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(12), uint8(4))
	f.Add(uint64(2), uint8(1), uint8(40), uint8(1))
	f.Add(uint64(3), uint8(5), uint8(7), uint8(12))
	f.Add(uint64(4), uint8(3), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nMachines, nTasks, nTypes uint8) {
		checkBatchReplay(t, seed, 1+int(nMachines%12), 1+int(nTasks%40), 1+int(nTypes%12))
	})
}

// The tests below pin the memoized immediate-mode ranking (one machine
// order per task type, rebuilt when the usable set changes) to the
// per-pick ranking it replaced. A pick sequence imitates the immediate
// mapping event: pick, enqueue the task on the chosen machine, and between
// picks fail, rejoin or add machines at random.

// refMET is MET re-ranked on every pick: an argmin scan over the usable
// machines, lowest index on ties.
func refMET(ctx *Context, t *task.Task) int {
	best, bestExec := -1, math.Inf(1)
	for j := range ctx.Machines {
		if ctx.Usable(j) {
			if e := ctx.MeanExec(t.Type, j); e < bestExec {
				best, bestExec = j, e
			}
		}
	}
	return best
}

// refKPB is KPB re-ranked on every pick: an insertion sort of the usable
// machines by expected execution time, then MCT over the best K percent.
func refKPB(percent float64, ctx *Context, t *task.Task) int {
	var order []int
	for j := range ctx.Machines {
		if ctx.Usable(j) {
			order = append(order, j)
		}
	}
	n := len(order)
	if n == 0 {
		return -1
	}
	keep := min(max(int(math.Ceil(percent/100*float64(n))), 1), n)
	for i := 1; i < n; i++ {
		for p := i; p > 0 && ctx.MeanExec(t.Type, order[p]) < ctx.MeanExec(t.Type, order[p-1]); p-- {
			order[p], order[p-1] = order[p-1], order[p]
		}
	}
	best, bestC := -1, math.Inf(1)
	for _, j := range order[:keep] {
		if c := ctx.Machines[j].ExpectedReady(ctx.Now) + ctx.MeanExec(t.Type, j); c < bestC {
			best, bestC = j, c
		}
	}
	return best
}

// checkImmediatePicks runs 60 arrivals through MET and KPB (at a
// seed-drawn K) on one shared Context per heuristic and compares every pick
// with the reference on the same state. Means tie on purpose: they come
// from three values, or are all equal when homogeneous is set.
func checkImmediatePicks(t *testing.T, seed uint64, nMachines, nTypes int, homogeneous bool) {
	rng := rand.New(rand.NewPCG(seed, 0x1d))
	maxMachines := nMachines + 3 // room for machines joining mid-run
	means := make([][]float64, nTypes)
	for i := range means {
		means[i] = make([]float64, maxMachines)
		for j := range means[i] {
			means[i][j] = 1
			if !homogeneous {
				means[i][j] = 0.5 * float64(1+rng.IntN(3))
			}
		}
	}
	percent := []float64{DefaultKPBPercent, 1, 50, 100, 12.5 + 75*rng.Float64()}[rng.IntN(5)]
	heuristics := []struct {
		h   Immediate
		ref func(*Context, *task.Task) int
	}{
		{NewMET(), refMET},
		{NewKPB(percent), func(ctx *Context, t *task.Task) int { return refKPB(percent, ctx, t) }},
	}
	for _, hc := range heuristics {
		// Both heuristics see the same fail/rejoin/join sequence.
		ops := rand.New(rand.NewPCG(seed, 0x2e))
		newMachine := func(j int) *machine.Machine {
			return machine.New(j, j, func(tt int) *pmf.PMF { return pmf.Delta(means[tt][j], 0.5) }, 0.5)
		}
		machines := make([]*machine.Machine, nMachines)
		for j := range machines {
			machines[j] = newMachine(j)
		}
		ctx := &Context{Machines: machines, MeanExec: func(tt, j int) float64 { return means[tt][j] }}
		for i := 0; i < 60; i++ {
			ctx.Now = 0.5 * float64(i)
			switch op := ops.IntN(10); {
			case op < 2:
				if m := ctx.Machines[ops.IntN(len(ctx.Machines))]; m.Down() {
					m.Rejoin()
				} else {
					m.Fail()
				}
			case op == 2 && len(ctx.Machines) < maxMachines:
				ctx.Machines = append(ctx.Machines, newMachine(len(ctx.Machines)))
			}
			tk := task.New(i, ops.IntN(nTypes), ctx.Now, ctx.Now+100)
			want := hc.ref(ctx, tk)
			if got := hc.h.Pick(ctx, tk); got != want {
				t.Fatalf("seed %d: %s pick %d (type %d) = %d, want %d", seed, hc.h.Name(), i, tk.Type, got, want)
			}
			if want >= 0 {
				ctx.Machines[want].Enqueue(tk, ctx.Now)
			}
		}
	}
}

func TestImmediatePickDifferential(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 2))
		checkImmediatePicks(t, seed, 1+rng.IntN(10), 1+rng.IntN(12), seed%4 == 0)
	}
}

func FuzzImmediatePick(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(12), false)
	f.Add(uint64(2), uint8(8), uint8(4), true)
	f.Add(uint64(3), uint8(1), uint8(1), false)
	f.Add(uint64(4), uint8(3), uint8(7), false)
	f.Fuzz(func(t *testing.T, seed uint64, nMachines, nTypes uint8, homogeneous bool) {
		checkImmediatePicks(t, seed, 1+int(nMachines%12), 1+int(nTypes%12), homogeneous)
	})
}
