package sched

import (
	"math/rand/v2"
	"slices"
	"testing"

	"prunesim/internal/machine"
	"prunesim/internal/pmf"
	"prunesim/internal/task"
)

// The tests in this file pin the machine reads a Context carries across
// Map calls (virtualState re-reads only the machines whose Version or, for
// an empty queue, Now moved) to a naive recomputation. Between the Map
// calls of one mapping event the machines change in every way the
// simulator changes them other than Enqueue: a start, a completion, a
// failure or rejoin, a reactive sweep, a machine joining. Between events
// only Now moves, so busy machines keep their queues.

// maxJoins caps the machines that join one replay.
const maxJoins = 3

// mutationFixture is a replayFixture whose platform can grow by up to
// maxJoins machines. Their MeanExec columns are drawn up front, so
// MeanExec is fixed for the Context's life.
type mutationFixture struct {
	*replayFixture
	ops   *rand.Rand
	n0    int
	extra [][]float64 // extra[k][type]: the mean of the k-th joined machine
}

func newMutationFixture(seed uint64, nMachines, nTasks, nTypes int) *mutationFixture {
	f := &mutationFixture{
		replayFixture: newReplayFixture(seed, nMachines, nTasks, nTypes),
		ops:           rand.New(rand.NewPCG(seed, 0x6d75)),
		n0:            nMachines,
		extra:         make([][]float64, maxJoins),
	}
	for k := range f.extra {
		f.extra[k] = make([]float64, nTypes)
		for tt := range f.extra[k] {
			f.extra[k][tt] = 0.5 * float64(1+f.ops.IntN(6))
		}
	}
	base := f.ctx.MeanExec
	f.ctx.MeanExec = func(tt, j int) float64 {
		if j < f.n0 {
			return base(tt, j)
		}
		return f.extra[j-f.n0][tt]
	}
	return f
}

// mutate applies one random machine operation other than Enqueue at now,
// or none (a pure deferral).
func (f *mutationFixture) mutate(now float64) {
	m := f.ctx.Machines[f.ops.IntN(len(f.ctx.Machines))]
	switch f.ops.IntN(6) {
	case 0:
		if !m.Down() {
			m.StartNext(now)
		}
	case 1:
		if m.Running() != nil {
			m.Complete(now)
		}
	case 2:
		if m.Down() {
			m.Rejoin()
		} else {
			m.Fail()
		}
	case 3:
		m.DropMissed(now, nil)
	case 4:
		if k := len(f.ctx.Machines) - f.n0; k < maxJoins {
			col := f.extra[k]
			f.ctx.Machines = append(f.ctx.Machines, machine.New(f.n0+k, f.n0+k,
				func(tt int) *pmf.PMF { return pmf.Delta(col[tt], 0.5) }, 0.5))
		}
	}
}

// replay runs five mapping events at increasing times on one Context and
// calls check with each Map answer, copied, and the arguments it was
// computed from. As in replayFixture.replay, a task is deferred with
// probability 1/2 and Map must compact what it did not assign; after each
// Map call one mutate follows.
func (f *mutationFixture) replay(t *testing.T, h Batch, check func(now float64, avail []*task.Task, got []Assignment)) {
	t.Helper()
	avail := slices.Clone(f.tasks)
	now := 0.0
	for event := 0; event < 5; event++ {
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
			check(now, pending, got)
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
			f.mutate(now)
		}
		// A 0.25 step can leave an empty machine's 0.5-wide anchor bin
		// where it was, so its ready time may or may not move with Now.
		now += 0.25 * float64(1+f.ops.IntN(4))
	}
}

// checkMutationReplay replays every batch heuristic on the mutation
// fixture for the given shape. MM, MSD and MMU are checked against their
// naive recomputation; the others against themselves on a fresh Context
// per call.
func checkMutationReplay(t *testing.T, seed uint64, nMachines, nTasks, nTypes int) {
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
		f := newMutationFixture(seed, nMachines, nTasks, nTypes)
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

func TestBatchMapMutationsDifferential(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 3))
		checkMutationReplay(t, seed, 1+rng.IntN(8), 1+rng.IntN(40), 1+rng.IntN(12))
	}
}

func FuzzMutatedBatchMap(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(12), uint8(4))
	f.Add(uint64(2), uint8(1), uint8(40), uint8(1))
	f.Add(uint64(3), uint8(5), uint8(7), uint8(12))
	f.Add(uint64(4), uint8(3), uint8(30), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nMachines, nTasks, nTypes uint8) {
		checkMutationReplay(t, seed, 1+int(nMachines%12), 1+int(nTasks%40), 1+int(nTypes%12))
	})
}
