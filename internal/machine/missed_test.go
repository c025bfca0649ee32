package machine

import (
	"testing"

	"prunesim/internal/pmf"
	"prunesim/internal/task"
)

// TestDropMissedAfterStartNextIsLazy pins the point of DropMissed: right
// after StartNext invalidated a 24-deep chain, the reactive sweep drops its
// expired tasks without a single PET lookup, and the chain the next read
// rebuilds is bitwise-equal to what an eager DropPending with the Missed
// predicate leaves behind — whether or not the head itself expired.
func TestDropMissedAfterStartNextIsLazy(t *testing.T) {
	for _, tc := range []struct {
		name    string
		expired func(id int) bool
	}{
		{"head-expired", func(id int) bool { return id%4 == 1 }},
		{"mid-queue", func(id int) bool { return id%4 == 3 }},
		{"none", func(int) bool { return false }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			base := benchLookup()
			counting := func(tt int) *pmf.PMF { calls++; return base(tt) }
			build := func(lookup PETLookup) *Machine {
				m := New(0, 0, lookup, 1)
				m.SetScratch(&pmf.Scratch{})
				for i := 0; i < 25; i++ {
					deadline := 1e9
					if tc.expired(i) {
						deadline = 2
					}
					m.Enqueue(task.New(i, i%3, 0, deadline), 0)
				}
				m.StartNext(0)
				return m
			}
			lazy, eager := build(counting), build(benchLookup())
			const now = 3.5
			calls = 0
			got := lazy.DropMissed(now, nil)
			if calls != 0 {
				t.Fatalf("DropMissed made %d PET lookups, want 0", calls)
			}
			want := eager.DropPending(now, func(e Entry) bool { return e.Task.Missed(now) }, nil)
			if err := sameTasks("dropped", got, want); err != nil {
				t.Fatal(err)
			}
			lp, ep := lazy.Pending(), eager.Pending()
			if len(lp) != len(ep) {
				t.Fatalf("pending %d vs %d", len(lp), len(ep))
			}
			for i := range lp {
				if err := pmfBitwise(lp[i].PCT, ep[i].PCT); err != nil {
					t.Fatalf("entry %d: %v", i, err)
				}
			}
		})
	}
}

// TestDropMissedRepairsCompose: two reactive sweeps with no read between
// them leave the same chain as two eager DropPending(Missed) sweeps, for
// every pair of sweep times over a queue whose deadlines are not in FCFS
// order — on a busy machine and an idle one. The second sweep's first drop
// may sit ahead of, at or behind the first's.
func TestDropMissedRepairsCompose(t *testing.T) {
	deadlines := []float64{5, 15, 8.5, 12, 6.5, 30, 9.5}
	times := []float64{4, 5.5, 7, 9, 10, 13}
	for _, busy := range []bool{true, false} {
		for _, t1 := range times {
			for _, t2 := range times {
				if t2 < t1 {
					continue
				}
				build := func() *Machine {
					m := New(0, 0, randomPET(), 1)
					m.SetScratch(&pmf.Scratch{})
					if busy {
						m.Enqueue(task.New(100, 2, 0, 1e9), 0)
					}
					for i, d := range deadlines {
						m.Enqueue(task.New(i, i%3, 0.5*float64(i), d), 0.5*float64(i))
					}
					if busy {
						m.StartNext(3)
						m.Pending()
					}
					return m
				}
				lazy, eager := build(), build()
				var got, want []*task.Task
				for _, now := range []float64{t1, t2} {
					got = lazy.DropMissed(now, got)
					want = eager.DropPending(now, func(e Entry) bool { return e.Task.Missed(now) }, want)
				}
				if err := sameTasks("dropped", got, want); err != nil {
					t.Fatalf("busy=%v t1=%v t2=%v: %v", busy, t1, t2, err)
				}
				lp, ep := lazy.Pending(), eager.Pending()
				for i := range lp {
					if err := pmfBitwise(lp[i].PCT, ep[i].PCT); err != nil {
						t.Fatalf("busy=%v t1=%v t2=%v entry %d: %v", busy, t1, t2, i, err)
					}
				}
			}
		}
	}
}

// TestDropMissedWatermarkAfterStartNext: StartNext removing the task with
// the earliest deadline leaves the watermark a stale but valid lower bound,
// so the next sweep still scans and finds the later expiry.
func TestDropMissedWatermarkAfterStartNext(t *testing.T) {
	m := newTestMachine()
	for i, d := range []float64{5, 10, 20} {
		m.Enqueue(task.New(i, 1, 0, d), 0)
	}
	m.StartNext(0)
	if got := m.DropMissed(7, nil); len(got) != 0 {
		t.Fatalf("DropMissed(7) dropped %d tasks, want 0", len(got))
	}
	got := m.DropMissed(11, nil)
	if len(got) != 1 || got[0].Deadline != 10 {
		t.Fatalf("DropMissed(11) = %v, want the task with deadline 10", got)
	}
	if m.PendingCount() != 1 || m.Pending()[0].Task.Deadline != 20 {
		t.Fatalf("pending after sweeps: %v", m)
	}
}

// TestDropMissedAppendsToDst: drops are appended after what dst holds, in
// FCFS order, and an empty queue returns dst unchanged.
func TestDropMissedAppendsToDst(t *testing.T) {
	m := newTestMachine()
	sentinel := task.New(99, 0, 0, 1)
	if got := m.DropMissed(5, []*task.Task{sentinel}); len(got) != 1 || got[0] != sentinel {
		t.Fatalf("empty queue: got %v", got)
	}
	for i := 0; i < 4; i++ {
		m.Enqueue(task.New(i, 1, 0, float64(1+i%2)), 0)
	}
	got := m.DropMissed(1.5, []*task.Task{sentinel})
	if len(got) != 3 || got[0] != sentinel || got[1].ID != 0 || got[2].ID != 2 {
		t.Fatalf("got %v, want sentinel then tasks 0 and 2", got)
	}
	if got[1].Machine != m.ID() {
		t.Fatalf("dropped task machine = %d, want %d", got[1].Machine, m.ID())
	}
}
