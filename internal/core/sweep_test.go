package core

import (
	"testing"

	"prunesim/internal/machine"
	"prunesim/internal/pmf"
	"prunesim/internal/task"
)

// TestSweepDropsWithoutAllocating: a mapping event whose sweep drops tasks
// — reactively and, with dropping engaged, proactively — allocates nothing
// in steady state. The drops land in the Pruner's reusable buffer.
func TestSweepDropsWithoutAllocating(t *testing.T) {
	pet := pmf.New(2, 1, []float64{0.5, 0.5}, 0)
	m := machine.New(0, 0, func(int) *pmf.PMF { return pet }, 1)
	m.SetScratch(&pmf.Scratch{})
	ms := []*machine.Machine{m}
	cfg := DefaultConfig(1)
	cfg.DropMode = ToggleAlways
	p := New(cfg)
	tasks := make([]*task.Task, 6)
	for i := range tasks {
		tasks[i] = task.New(i, 0, 0, 0)
	}
	var reactive, proactive int
	evict := func(tk *task.Task, _ int) {
		if tk.Status == task.StatusDroppedReactive {
			reactive++
		} else {
			proactive++
		}
	}
	now := 0.0
	event := func() {
		for i, tk := range tasks {
			// Even tasks expire before the sweep; odd ones are alive but
			// hopeless, so the proactive step drops them.
			tk.Arrival, tk.Deadline = now, now+1
			if i%2 == 1 {
				tk.Deadline = now + 3
			}
			m.Enqueue(tk, now)
		}
		now += 2
		p.Sweep(ms, now, evict)
		now += 10
	}
	event() // warm the buffers
	reactive, proactive = 0, 0
	allocs := testing.AllocsPerRun(20, event)
	if reactive == 0 || proactive == 0 {
		t.Fatalf("sweeps dropped %d reactively and %d proactively; want both > 0", reactive, proactive)
	}
	if m.PendingCount() != 0 {
		t.Fatalf("%d tasks left pending", m.PendingCount())
	}
	if allocs != 0 {
		t.Fatalf("Sweep allocates %v per event, want 0", allocs)
	}
}
