package machine

import (
	"math"
	"testing"

	"prunesim/internal/pmf"
	"prunesim/internal/task"
)

// TestChanceMemoInvalidatedByEnqueue: the per-type chance memo must not
// survive a mutation made through another type. A chance cached for type 1
// before a type-0 task is mapped must afterwards reflect the longer queue.
func TestChanceMemoInvalidatedByEnqueue(t *testing.T) {
	m := newTestMachine()
	m.SetScratch(&pmf.Scratch{})
	// A non-empty queue, so no anchor move can lapse the memo; only the
	// Enqueue below can. A type-1 task (exactly 1 unit) queued behind the
	// first finishes at 2.
	m.Enqueue(task.New(0, 1, 0, 10), 0)
	if got := m.ChanceIfEnqueued(1, 2, 0); got != 1 {
		t.Fatalf("chance(type 1, d=2) = %v, want 1", got)
	}
	_ = m.ChanceIfEnqueued(0, 4, 0) // fill type 0's memo as well
	m.Enqueue(task.New(1, 0, 0, 10), 0)
	// Behind the type-0 task (2 or 4 units) it finishes at 4 or 6.
	for _, c := range []struct{ deadline, want float64 }{{2, 0}, {4, 0.5}, {6, 1}} {
		if got := m.ChanceIfEnqueued(1, c.deadline, 0); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("after enqueue: chance(type 1, d=%v) = %v, want %v", c.deadline, got, c.want)
		}
	}
}

// TestSetScratchNilReturnsCacheBuffers: detaching hands every chance-memo
// buffer and the anchor buffer back to the scratch, and the machine keeps
// no reference to them.
func TestSetScratchNilReturnsCacheBuffers(t *testing.T) {
	for _, enqueue := range []bool{false, true} {
		m := New(0, 0, benchLookup(), 1)
		s := &pmf.Scratch{}
		m.SetScratch(s)
		for k := 0; k < 3; k++ {
			m.ChanceIfEnqueued(k, 10, 0.5) // empty queue: also fills anchorBuf
		}
		if enqueue {
			m.Enqueue(task.New(0, 1, 0, 1e9), 0.5) // takes type 1's buffer
		}
		held := map[*pmf.PMF]bool{m.anchorBuf: true}
		for _, c := range m.chance {
			if c.pct != nil {
				held[c.pct] = true
			}
		}
		want := 4 // three memo buffers and the anchor
		if enqueue {
			want = 3
		}
		if len(held) != want {
			t.Fatalf("enqueue=%v: machine holds %d cache buffers, want %d", enqueue, len(held), want)
		}
		before := s.Len()
		m.SetScratch(nil)
		if got := s.Len() - before; got != len(held) {
			t.Fatalf("enqueue=%v: scratch grew by %d, want %d", enqueue, got, len(held))
		}
		if m.anchorBuf != nil {
			t.Fatalf("enqueue=%v: anchor buffer still referenced", enqueue)
		}
		for k, c := range m.chance {
			if c.pct != nil {
				t.Fatalf("enqueue=%v: chance buffer of type %d still referenced", enqueue, k)
			}
		}
		for s.Len() > 0 {
			delete(held, s.Get())
		}
		if len(held) != 0 {
			t.Fatalf("enqueue=%v: %d cache buffers missing from the scratch", enqueue, len(held))
		}
	}
}

// TestDeferCycleDoesNotAllocate: the batch-deferral cycle — a chance query
// for every type, then enqueue, start, complete — reuses memo buffers
// through the scratch and allocates nothing in steady state.
func TestDeferCycleDoesNotAllocate(t *testing.T) {
	m := loadedMachine(8)
	tk := make([]*task.Task, 16)
	for i := range tk {
		tk[i] = task.New(i, i%3, 0, 1e9)
	}
	now, n := 0.0, 0
	cycle := func() {
		now += 1.5
		next := tk[n%len(tk)]
		next.ID = 100 + n // fresh identity; arrival stays in the past
		n++
		for k := 0; k < 3; k++ {
			_ = m.ChanceIfEnqueued(k, now+20, now)
		}
		m.Enqueue(next, now)
		m.Complete(now)
		m.StartNext(now)
	}
	for i := 0; i < 64; i++ {
		cycle() // let every recycled buffer reach its steady capacity
	}
	if a := testing.AllocsPerRun(200, cycle); a != 0 {
		t.Fatalf("defer cycle allocates %v times per run, want 0", a)
	}
}
