package machine

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"prunesim/internal/pmf"
	"prunesim/internal/task"
)

// scenario is a fuzzer-generated queue configuration: a sequence of task
// types (0 or 1) to enqueue and a drop mask.
type scenario struct {
	types []int
	drop  []bool
}

// Generate implements quick.Generator.
func (scenario) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 1 + r.Intn(6)
	sc := scenario{types: make([]int, n), drop: make([]bool, n)}
	any := false
	for i := range sc.types {
		sc.types[i] = r.Intn(2)
		sc.drop[i] = r.Intn(3) == 0
		any = any || sc.drop[i]
	}
	if !any {
		sc.drop[r.Intn(n)] = true
	}
	return reflect.ValueOf(sc)
}

// TestPropDropReducesSuccessorMeans: dropping any prefix task must not
// increase the completion-time mean of any surviving task.
func TestPropDropReducesSuccessorMeans(t *testing.T) {
	f := func(sc scenario) bool {
		m := New(0, 0, twoPointPET, 1)
		ids := make(map[int]int) // task ID -> position
		for i, tt := range sc.types {
			tk := task.New(i, tt, 0, 1000)
			m.Enqueue(tk, 0)
			ids[i] = i
		}
		before := make(map[int]float64)
		for _, e := range m.Pending() {
			before[e.Task.ID] = e.PCT.Mean()
		}
		m.DropPending(0, func(e Entry) bool { return sc.drop[e.Task.ID] }, nil)
		for _, e := range m.Pending() {
			if e.PCT.Mean() > before[e.Task.ID]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropQueueConservation: enqueue/drop/start never lose or duplicate
// tasks.
func TestPropQueueConservation(t *testing.T) {
	f := func(sc scenario) bool {
		m := New(0, 0, twoPointPET, 1)
		for i, tt := range sc.types {
			m.Enqueue(task.New(i, tt, 0, 1000), 0)
		}
		started := m.StartNext(0)
		dropped := m.DropPending(0, func(e Entry) bool { return sc.drop[e.Task.ID] }, nil)
		total := len(dropped) + m.PendingCount()
		if started != nil {
			total++
		}
		if total != len(sc.types) {
			return false
		}
		seen := make(map[int]bool)
		if started != nil {
			seen[started.ID] = true
		}
		for _, tk := range dropped {
			if seen[tk.ID] {
				return false
			}
			seen[tk.ID] = true
		}
		for _, e := range m.Pending() {
			if seen[e.Task.ID] {
				return false
			}
			seen[e.Task.ID] = true
		}
		return len(seen) == len(sc.types)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropChanceMonotoneInDeadline: for a fixed queue state, the chance of
// success never decreases as the deadline loosens.
func TestPropChanceMonotoneInDeadline(t *testing.T) {
	f := func(sc scenario) bool {
		m := New(0, 0, twoPointPET, 1)
		for i, tt := range sc.types {
			m.Enqueue(task.New(i, tt, 0, 1000), 0)
		}
		prev := -1.0
		for d := 0.0; d <= 40; d += 2 {
			c := m.ChanceIfEnqueued(0, d, 0)
			if c < prev-1e-12 {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropExpectedReadyMonotoneInQueue: enqueueing more work never lowers
// the machine's expected ready time.
func TestPropExpectedReadyMonotoneInQueue(t *testing.T) {
	f := func(sc scenario) bool {
		m := New(0, 0, twoPointPET, 1)
		prev := m.ExpectedReady(0)
		for i, tt := range sc.types {
			m.Enqueue(task.New(i, tt, 0, 1000), 0)
			ready := m.ExpectedReady(0)
			if ready < prev-1e-9 {
				return false
			}
			prev = ready
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConvolveMaxPanicsOnBadCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := pmf.Delta(1, 1)
	a.ConvolveMax(pmf.Delta(2, 1), 0)
}
