package machine

import (
	"math"
	"testing"

	"prunesim/internal/pmf"
	"prunesim/internal/task"
)

// twoPointPET: task type 0 takes 2 or 4 time units with equal probability;
// type 1 takes exactly 1.
func twoPointPET(taskType int) *pmf.PMF {
	switch taskType {
	case 0:
		return pmf.New(2, 1, []float64{0.5, 0, 0.5}, 0)
	case 1:
		return pmf.Delta(1, 1)
	default:
		return nil
	}
}

func newTestMachine() *Machine { return New(0, 0, twoPointPET, 1) }

func TestNewValidation(t *testing.T) {
	for i, f := range []func(){
		func() { New(0, 0, nil, 1) },
		func() { New(0, 0, twoPointPET, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestIdleBaseline(t *testing.T) {
	m := newTestMachine()
	if !m.Idle() || m.QueueLen() != 0 {
		t.Fatal("fresh machine should be idle and empty")
	}
	if got := m.ExpectedReady(5); got != 5 {
		t.Fatalf("idle ExpectedReady(5) = %v, want 5", got)
	}
}

func TestEnqueueComputesPCT(t *testing.T) {
	m := newTestMachine()
	tk := task.New(0, 0, 0, 10)
	m.Enqueue(tk, 0)
	if tk.Status != task.StatusMachineQueued || tk.Machine != 0 {
		t.Fatalf("enqueue did not update task: %v", tk)
	}
	// Idle machine at t=0: PCT = delta(0) * PET = PET itself.
	e := m.Pending()[0]
	if !e.PCT.Equal(twoPointPET(0), 1e-9) {
		t.Fatalf("PCT = %v, want PET", e.PCT)
	}
}

func TestEnqueueChainsConvolution(t *testing.T) {
	m := newTestMachine()
	a := task.New(0, 0, 0, 10)
	b := task.New(1, 0, 0, 10)
	m.Enqueue(a, 0)
	m.Enqueue(b, 0)
	// b's PCT = PET(0) * PET(0): {4:.25, 6:.5, 8:.25}.
	e := m.Pending()[1]
	want := pmf.New(4, 1, []float64{0.25, 0, 0.5, 0, 0.25}, 0)
	if !e.PCT.Equal(want, 1e-9) {
		t.Fatalf("chained PCT = %v, want %v", e.PCT, want)
	}
}

func TestChanceIfEnqueued(t *testing.T) {
	m := newTestMachine()
	// Empty machine at t=0: a type-0 task with deadline 2 has chance 0.5
	// (duration 2 w.p. 0.5, duration 4 misses).
	got := m.ChanceIfEnqueued(0, 2, 0)
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("chance = %v, want 0.5", got)
	}
	if got := m.ChanceIfEnqueued(0, 100, 0); math.Abs(got-1) > 1e-9 {
		t.Fatalf("chance with loose deadline = %v, want 1", got)
	}
}

func TestStartNextAndComplete(t *testing.T) {
	m := newTestMachine()
	tk := task.New(0, 0, 0, 10)
	m.Enqueue(tk, 0)
	started := m.StartNext(0)
	if started != tk || tk.Status != task.StatusRunning || tk.Start != 0 {
		t.Fatalf("StartNext wrong: %v", tk)
	}
	if m.StartNext(0) != nil {
		t.Fatal("StartNext while busy should return nil")
	}
	done := m.Complete(3)
	if done != tk || tk.Status != task.StatusCompletedOnTime || tk.Completion != 3 {
		t.Fatalf("Complete wrong: %v", tk)
	}
	if !m.Idle() {
		t.Fatal("machine should be idle after completion")
	}
}

func TestCompleteLate(t *testing.T) {
	m := newTestMachine()
	tk := task.New(0, 0, 0, 2)
	m.Enqueue(tk, 0)
	m.StartNext(0)
	m.Complete(5)
	if tk.Status != task.StatusCompletedLate {
		t.Fatalf("status = %v, want completed-late", tk.Status)
	}
}

func TestCompleteWithoutRunningPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newTestMachine().Complete(0)
}

func TestStartNextEmptyQueue(t *testing.T) {
	if newTestMachine().StartNext(0) != nil {
		t.Fatal("StartNext on empty queue should return nil")
	}
}

func TestQueueLenCountsRunning(t *testing.T) {
	m := newTestMachine()
	m.Enqueue(task.New(0, 0, 0, 10), 0)
	m.Enqueue(task.New(1, 0, 0, 10), 0)
	if m.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2", m.QueueLen())
	}
	m.StartNext(0)
	if m.QueueLen() != 2 || m.PendingCount() != 1 {
		t.Fatalf("QueueLen = %d PendingCount = %d after start", m.QueueLen(), m.PendingCount())
	}
}

func TestDropPendingRecomputesPCT(t *testing.T) {
	m := newTestMachine()
	a := task.New(0, 0, 0, 10) // type 0: {2,4}
	b := task.New(1, 1, 0, 10) // type 1: exactly 1
	m.Enqueue(a, 0)
	m.Enqueue(b, 0)
	// Before drop: b's PCT = PET0*PET1 = {3:.5, 5:.5}, mean 4.
	before := m.Pending()[1].PCT.Mean()
	dropped := m.DropPending(0, func(e Entry) bool { return e.Task.ID == 0 }, nil)
	if len(dropped) != 1 || dropped[0] != a {
		t.Fatalf("dropped %v", dropped)
	}
	if m.PendingCount() != 1 {
		t.Fatalf("pending = %d", m.PendingCount())
	}
	// After drop: b's PCT = delta(0)*PET1 = delta(1), mean 1.
	after := m.Pending()[0].PCT.Mean()
	if math.Abs(after-1) > 1e-9 {
		t.Fatalf("recomputed PCT mean = %v, want 1", after)
	}
	if after >= before {
		t.Fatal("dropping ahead task should reduce completion time")
	}
}

func TestDropPendingSeesUpdatedPCTs(t *testing.T) {
	// The predicate must observe PCTs that account for drops ahead:
	// with two type-0 tasks and a drop-everything-with-mean>4 rule, the
	// second task's refreshed PCT (after the first drops) has mean 3 and
	// survives.
	m := newTestMachine()
	a := task.New(0, 0, 0, 10)
	b := task.New(1, 0, 0, 10)
	m.Enqueue(a, 0)
	m.Enqueue(b, 0)
	dropped := m.DropPending(0, func(e Entry) bool { return e.PCT.Mean() > 4 }, nil)
	// a's PCT mean is 3 (survives); b's refreshed PCT mean is then 6 (drops).
	if len(dropped) != 1 || dropped[0] != b {
		t.Fatalf("dropped %v, want just task 1", dropped)
	}
}

func TestDropPendingNothing(t *testing.T) {
	m := newTestMachine()
	if got := m.DropPending(0, func(Entry) bool { return true }, nil); got != nil {
		t.Fatalf("drop on empty queue returned %v", got)
	}
}

func TestRefreshPCTsConditionsOnNow(t *testing.T) {
	m := newTestMachine()
	run := task.New(0, 0, 0, 10) // duration 2 or 4
	m.Enqueue(run, 0)
	m.StartNext(0)
	next := task.New(1, 1, 0, 10) // duration exactly 1
	m.Enqueue(next, 0)
	// At t=3 the running task cannot have duration 2 anymore: its remaining
	// completion is exactly 4, so next's PCT becomes delta(5).
	m.RefreshPCTs(3)
	got := m.Pending()[0].PCT
	if math.Abs(got.Mean()-5) > 1e-9 {
		t.Fatalf("conditioned PCT mean = %v, want 5", got.Mean())
	}
}

func TestExpectedReadyAccumulates(t *testing.T) {
	m := newTestMachine()
	m.Enqueue(task.New(0, 0, 0, 100), 0) // mean 3
	m.Enqueue(task.New(1, 0, 0, 100), 0) // mean 3
	if got := m.ExpectedReady(0); math.Abs(got-6) > 1e-9 {
		t.Fatalf("ExpectedReady = %v, want 6", got)
	}
}

func TestStartNextAnchorsRemainingPCTs(t *testing.T) {
	m := newTestMachine()
	a := task.New(0, 1, 0, 100) // duration 1
	b := task.New(1, 1, 0, 100) // duration 1
	m.Enqueue(a, 0)
	m.Enqueue(b, 0)
	m.StartNext(0)
	// b is now behind a running task that completes at exactly t=1, so b's
	// PCT should be delta(2).
	got := m.Pending()[0].PCT
	if math.Abs(got.Mean()-2) > 1e-9 {
		t.Fatalf("PCT after start = %v, want mean 2", got.Mean())
	}
}

func TestUnknownTaskTypePanics(t *testing.T) {
	m := newTestMachine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown task type")
		}
	}()
	m.Enqueue(task.New(0, 99, 0, 10), 0)
}

func TestNewRejectsBadBinWidth(t *testing.T) {
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with bin width %v: expected panic", w)
				}
			}()
			New(0, 0, twoPointPET, w)
		}()
	}
}
