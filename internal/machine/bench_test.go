package machine

import (
	"testing"

	"prunesim/internal/pmf"
	"prunesim/internal/task"
)

// benchLookup is a deterministic PET table shaped like the paper's Gamma
// histograms (a few dozen bins).
func benchLookup() PETLookup {
	pets := make([]*pmf.PMF, 3)
	for k := range pets {
		masses := make([]float64, 16+8*k)
		for i := range masses {
			masses[i] = float64(1+(i*7+k*3)%13) / 100
		}
		pets[k] = pmf.New(1+k, 1, masses, 0)
	}
	return func(taskType int) *pmf.PMF { return pets[taskType] }
}

// loadedMachine returns a busy machine over benchLookup with a scratch
// attached: one running task and depth-1 pending tasks.
func loadedMachine(depth int) *Machine {
	m := New(0, 0, benchLookup(), 1)
	m.SetScratch(&pmf.Scratch{})
	for i := 0; i < depth; i++ {
		m.Enqueue(task.New(i, i%3, 0, 1e9), 0)
	}
	m.StartNext(0)
	return m
}

// BenchmarkMachineSteadyState measures the per-task machine cycle of an
// oversubscribed queue — chance query, enqueue, start, complete — which is
// the simulator's inner loop. Steady state must not allocate: every PMF
// buffer is recycled through the machine's scratch.
func BenchmarkMachineSteadyState(b *testing.B) {
	m := New(0, 0, benchLookup(), 1)
	m.SetScratch(&pmf.Scratch{})
	tasks := make([]*task.Task, 64)
	for i := range tasks {
		tasks[i] = task.New(i, i%3, 0, 1e9)
	}
	// Pre-fill the queue so starts always find work.
	now := 0.0
	for _, t := range tasks[:8] {
		m.Enqueue(t, now)
	}
	m.StartNext(now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1.5
		t := tasks[(8+i)%len(tasks)]
		t.ID = 64 + i // fresh identity; arrival stays in the past
		_ = m.ChanceIfEnqueued(t.Type, t.Deadline, now)
		m.Enqueue(t, now)
		m.Complete(now)
		m.StartNext(now)
	}
}

// BenchmarkMachineRefreshPCTs measures RefreshPCTs over a 24-deep queue in
// the incremental regimes the simulator hits: repeated refreshes at the
// same effective anchor (cache hit, no convolution) and refreshes after
// time advanced past a bin boundary (reconvolution).
func BenchmarkMachineRefreshPCTs(b *testing.B) {
	b.Run("anchor-hit", func(b *testing.B) {
		m := New(0, 0, benchLookup(), 1)
		m.SetScratch(&pmf.Scratch{})
		for i := 0; i < 24; i++ {
			m.Enqueue(task.New(i, i%3, 0, 1e9), 0)
		}
		m.StartNext(0)
		m.RefreshPCTs(0.25)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.RefreshPCTs(0.25) // same anchor: must be a no-op
		}
	})
	b.Run("anchor-moved", func(b *testing.B) {
		m := New(0, 0, benchLookup(), 1)
		m.SetScratch(&pmf.Scratch{})
		for i := 0; i < 24; i++ {
			m.Enqueue(task.New(i, i%3, 0, 1e9), 0)
		}
		m.StartNext(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Alternate between two cut bins: every call moves the anchor
			// and reconvolves the whole queue in place.
			m.RefreshPCTs(float64(2 + i%2))
		}
	})
}

// BenchmarkMachineDropSweep measures DropPending over a valid 24-deep
// chain with a predicate that drops nothing — the proactive sweep's pass
// over a machine that keeps all its tasks. It must perform no convolutions
// and no allocations.
func BenchmarkMachineDropSweep(b *testing.B) {
	m := New(0, 0, benchLookup(), 1)
	m.SetScratch(&pmf.Scratch{})
	for i := 0; i < 24; i++ {
		m.Enqueue(task.New(i, i%3, 0, 1e9), 0)
	}
	m.StartNext(0)
	m.Pending() // settle the chain
	never := func(Entry) bool { return false }
	var dst []*task.Task
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = m.DropPending(0, never, dst[:0])
	}
}

// BenchmarkMachineMissedSweep measures DropMissed — the reactive sweep the
// simulator runs on every machine at every mapping event — right after
// StartNext invalidated the 24-deep chain, with nothing expired. It must
// not rebuild the chain, and must not allocate.
func BenchmarkMachineMissedSweep(b *testing.B) {
	m := New(0, 0, benchLookup(), 1)
	m.SetScratch(&pmf.Scratch{})
	for i := 0; i < 25; i++ {
		m.Enqueue(task.New(i, i%3, 0, 1e9), 0)
	}
	m.StartNext(0)
	var dst []*task.Task
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = m.DropMissed(float64(i%7), dst[:0])
	}
}

// BenchmarkMachineDeferRound measures the batch-deferral pattern: between
// two mutations a batch heuristic asks a machine about several task types,
// more than once each (every Map call of a mapping event re-asks), before
// one task is finally mapped. Each round queries all three types twice,
// then enqueues one task and cycles the head so the queue depth stays
// fixed. Repeat queries are memo hits; steady state must not allocate.
func BenchmarkMachineDeferRound(b *testing.B) {
	m := loadedMachine(8)
	tasks := make([]*task.Task, 64)
	for i := range tasks {
		tasks[i] = task.New(i, i%3, 0, 1e9)
	}
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1.5
		for pass := 0; pass < 2; pass++ {
			for k := 0; k < 3; k++ {
				_ = m.ChanceIfEnqueued(k, now+20, now)
			}
		}
		t := tasks[(8+i)%len(tasks)]
		t.ID = 64 + i // fresh identity; arrival stays in the past
		m.Enqueue(t, now)
		m.Complete(now)
		m.StartNext(now)
	}
}
