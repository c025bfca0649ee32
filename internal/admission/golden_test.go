package admission

import (
	"testing"

	"prunesim/internal/core"
	"prunesim/internal/machine"
	"prunesim/internal/pet"
	"prunesim/internal/pmf"
	"prunesim/internal/sched"
	"prunesim/internal/sim"
	"prunesim/internal/task"
)

// goldenWorkload builds a deterministic arrival sequence with enough
// pressure to queue tasks behind each other and expire some deadlines.
func goldenWorkload(n int) []*task.Task {
	tasks := make([]*task.Task, n)
	for i := 0; i < n; i++ {
		arrival := float64(i) * 0.7
		// Deadlines cycle tight..loose so some tasks expire in queue.
		slack := 1.0 + float64((i*i)%17)
		tasks[i] = task.New(i, i%2, arrival, arrival+slack)
	}
	return tasks
}

// TestGoldenReplaySimulatorTrace is the golden-verdict test: it runs the
// actual simulator (immediate mode, MCT, pruning disabled) over a workload,
// captures its trace, then replays the identical arrival/completion
// sequence through an admission Session and asserts bitwise equality of
// every observable: the machine each task maps to, the chance of success
// computed at mapping time (Eq. 2 on identical queue state), start times,
// on-time verdicts and reactive evictions. The admission engine is built on
// the same machine/pruner/sched primitives as the simulator; this test pins
// that the decision path through them is the same path, not a lookalike.
func TestGoldenReplaySimulatorTrace(t *testing.T) {
	matrix := testMatrix()
	machineTypes := []int{0, 1}
	tasks := goldenWorkload(80)
	deadlines := make(map[int]float64, len(tasks))
	taskTypes := make(map[int]int, len(tasks))
	for _, tk := range tasks {
		deadlines[tk.ID] = tk.Deadline
		taskTypes[tk.ID] = tk.Type
	}

	var events []sim.TraceEvent
	h, _, err := sched.ByName("MCT")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(matrix, tasks, sim.Config{
		Mode:         sim.ImmediateMode,
		Heuristic:    h,
		MachineTypes: machineTypes,
		Prune:        core.Disabled(2),
		Seed:         7,
		Observer:     func(ev sim.TraceEvent) { events = append(events, ev) },
	}); err != nil {
		t.Fatalf("sim.Run: %v", err)
	}

	sess, err := NewSession(Config{
		Matrix:       matrix,
		MachineTypes: machineTypes,
		Heuristic:    "MCT",
		Prune:        core.Disabled(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Replay. Session task IDs are assigned in decide order == arrival
	// order == workload IDs, so IDs align 1:1.
	simStart := map[int]float64{}    // sim: task -> start time
	sessStart := map[int]float64{}   // session: task -> start time
	simDropped := map[int]float64{}  // sim: reactively dropped task -> time
	sessDropped := map[int]float64{} // session evictions
	decisions := map[int]Decision{}  // session decision per task (scalars only)
	mapped := 0
	for _, ev := range events {
		switch ev.Kind {
		case sim.TraceArrived:
			d, err := sess.Decide(TaskSpec{Type: ev.TaskType, Deadline: deadlines[ev.TaskID]}, ev.Time)
			if err != nil {
				t.Fatalf("Decide(task %d): %v", ev.TaskID, err)
			}
			if d.TaskID != ev.TaskID {
				t.Fatalf("session assigned ID %d to arrival %d", d.TaskID, ev.TaskID)
			}
			if d.Verdict != VerdictAccept {
				t.Fatalf("task %d: verdict %s/%s, want accept (pruning disabled)", ev.TaskID, d.Verdict, d.Reason)
			}
			if d.Started {
				sessStart[d.TaskID] = d.Now
			}
			for _, e := range d.Evicted {
				sessDropped[e.TaskID] = d.Now
			}
			d.Evicted = nil // session-owned buffer; only scalars are kept
			decisions[d.TaskID] = d
		case sim.TraceMapped:
			// The decision for this task already ran (Arrived precedes
			// Mapped within one sim event); compare it to the sim's pick.
			mapped++
			d, ok := decisions[ev.TaskID]
			if !ok {
				t.Fatalf("sim mapped task %d before its arrival was replayed", ev.TaskID)
			}
			if d.Machine != ev.Machine {
				t.Fatalf("task %d mapped to machine %d, sim chose %d", ev.TaskID, d.Machine, ev.Machine)
			}
			if d.Chance != ev.Chance { // bitwise: identical queue state, identical convolution
				t.Fatalf("task %d chance %v, sim computed %v", ev.TaskID, d.Chance, ev.Chance)
			}
		case sim.TraceCompleted:
			c, err := sess.Complete(ev.TaskID, ev.Time)
			if err != nil {
				t.Fatalf("Complete(task %d at %v): %v", ev.TaskID, ev.Time, err)
			}
			if c.Stale {
				t.Fatalf("task %d: unexpected stale completion", ev.TaskID)
			}
			if c.OnTime != ev.OnTime {
				t.Fatalf("task %d: on-time %v, sim says %v", ev.TaskID, c.OnTime, ev.OnTime)
			}
			for _, id := range c.Started {
				sessStart[id] = c.Now
			}
			for _, e := range c.Evicted {
				sessDropped[e.TaskID] = c.Now
			}
		case sim.TraceStarted:
			simStart[ev.TaskID] = ev.Time
		case sim.TraceDroppedReactive, sim.TraceDroppedProactive:
			simDropped[ev.TaskID] = ev.Time
		}
	}
	if mapped == 0 {
		t.Fatal("trace contained no mapped events; replay proved nothing")
	}
	if len(simStart) != len(sessStart) {
		t.Fatalf("sim started %d tasks, session %d", len(simStart), len(sessStart))
	}
	for id, at := range simStart {
		if got, ok := sessStart[id]; !ok || got != at {
			t.Errorf("task %d: session start %v (present %v), sim start %v", id, got, ok, at)
		}
	}
	if len(simDropped) != len(sessDropped) {
		t.Fatalf("sim dropped %v, session dropped %v", simDropped, sessDropped)
	}
	for id, at := range simDropped {
		if got, ok := sessDropped[id]; !ok || got != at {
			t.Errorf("task %d: session drop %v (present %v), sim drop %v", id, got, ok, at)
		}
	}
}

// TestGoldenPrunedMirror drives a pruning-enabled session and a hand-built
// mirror of the simulator's Figure-5 mapping-event order — the same
// machine.Machine, core.Pruner and sched primitives called in the
// documented sequence (reactive sweep, Toggle, proactive sweep, pick,
// chance test) — and asserts every decision matches bitwise: verdict,
// machine, chance and the fairness/value-adjusted threshold.
func TestGoldenPrunedMirror(t *testing.T) {
	matrix := testMatrix()
	machineTypes := []int{0, 1}
	pcfg := core.DefaultConfig(2)
	pcfg.ValueAware = true
	pcfg.ValueRef = 1

	sess, err := NewSession(Config{Matrix: matrix, MachineTypes: machineTypes, Heuristic: "MCT", Prune: pcfg})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// The mirror: raw primitives, no Session code.
	m := newMirror(matrix, machineTypes, pcfg)

	// Deterministic op stream: mostly arrivals, a completion of the oldest
	// running task every few steps. Deadlines cycle tight..loose; values
	// cycle 0.5/1/2 to exercise the value-aware threshold.
	now := 0.0
	var runnable []int // session task IDs reported started, FIFO
	for i := 0; i < 120; i++ {
		now += 0.4
		if i%5 == 4 && len(runnable) > 0 {
			id := runnable[0]
			runnable = runnable[1:]
			c, err := sess.Complete(id, now)
			if err != nil {
				t.Fatalf("op %d Complete(%d): %v", i, id, err)
			}
			started := m.complete(t, id, now)
			if !equalInts(c.Started, started) {
				t.Fatalf("op %d: session started %v, mirror %v", i, c.Started, started)
			}
			runnable = append(runnable, c.Started...)
			continue
		}
		spec := TaskSpec{
			Type:     i % 2,
			Deadline: now + 0.5 + float64((i*7)%23)*0.75,
			Value:    []float64{0.5, 1, 2}[i%3],
		}
		d, err := sess.Decide(spec, now)
		if err != nil {
			t.Fatalf("op %d Decide: %v", i, err)
		}
		md := m.decide(spec, now, d.TaskID)
		if d.Verdict != md.Verdict || d.Reason != md.Reason {
			t.Fatalf("op %d: session %s/%s, mirror %s/%s", i, d.Verdict, d.Reason, md.Verdict, md.Reason)
		}
		if d.Machine != md.Machine {
			t.Fatalf("op %d: session machine %d, mirror %d", i, d.Machine, md.Machine)
		}
		if d.Chance != md.Chance {
			t.Fatalf("op %d: session chance %v, mirror %v (bitwise)", i, d.Chance, md.Chance)
		}
		if d.Threshold != md.Threshold {
			t.Fatalf("op %d: session threshold %v, mirror %v (bitwise)", i, d.Threshold, md.Threshold)
		}
		if d.Started != md.Started {
			t.Fatalf("op %d: session started=%v, mirror %v", i, d.Started, md.Started)
		}
		if !equalEvictions(d.Evicted, md.Evicted) {
			t.Fatalf("op %d: session evicted %v, mirror %v", i, d.Evicted, md.Evicted)
		}
		if d.Verdict == VerdictAccept && d.Started {
			runnable = append(runnable, d.TaskID)
		}
		// Remove mirror-evicted tasks from the runnable FIFO (they can no
		// longer be completed).
		for _, ev := range d.Evicted {
			runnable = removeID(runnable, ev.TaskID)
		}
	}
	// The stream must have exercised all three verdicts for the mirror to
	// mean anything.
	c := sess.Counters()
	if c.Accepted == 0 || c.Deferred == 0 || c.Dropped+c.Evicted == 0 {
		t.Fatalf("op stream too tame: counters %+v", c)
	}
}

// mirror re-implements the mapping-event order straight from
// sim/loop.go:mappingEvent using only the shared primitives.
type mirror struct {
	machines []*machine.Machine
	pruner   *core.Pruner
	imm      sched.Immediate
	ctx      sched.Context
	tasks    map[int]*task.Task
}

func newMirror(matrix *pet.Matrix, machineTypes []int, pcfg core.Config) *mirror {
	m := &mirror{pruner: core.New(pcfg), imm: sched.NewMCT(), tasks: map[int]*task.Task{}}
	m.machines = make([]*machine.Machine, len(machineTypes))
	for j, mt := range machineTypes {
		col := mt
		m.machines[j] = machine.New(j, col, func(tt int) *pmf.PMF { return matrix.PET(tt, col) }, matrix.BinWidth())
	}
	m.ctx = sched.Context{
		Machines: m.machines,
		MeanExec: func(tt, j int) float64 { return matrix.MeanExec(tt, m.machines[j].TypeIndex()) },
	}
	return m
}

// sweep is Figure 5 steps 1-6: reactive drop, Toggle consult, proactive
// drop (transcribed from sim/loop.go reactiveSweep + proactiveDrop).
func (m *mirror) sweep(now float64) []Eviction {
	var evicted []Eviction
	for j, mm := range m.machines {
		for _, tk := range mm.DropPending(now, func(e machine.Entry) bool { return e.Task.Missed(now) }, nil) {
			tk.Status = task.StatusDroppedReactive
			m.pruner.RecordReactiveDrop(tk.Type)
			evicted = append(evicted, Eviction{TaskID: tk.ID, Machine: j, Reason: ReasonDeadlineMissed})
			delete(m.tasks, tk.ID)
		}
	}
	m.pruner.BeginEvent()
	if m.pruner.DroppingEngaged() {
		for j, mm := range m.machines {
			for _, tk := range mm.DropPending(now, func(e machine.Entry) bool {
				return m.pruner.ShouldDropValued(e.PCT.ProbLE(e.Task.Deadline), e.Task.Type, e.Task.Value)
			}, nil) {
				tk.Status = task.StatusDroppedProactive
				m.pruner.RecordProactiveDrop(tk.Type)
				evicted = append(evicted, Eviction{TaskID: tk.ID, Machine: j, Reason: ReasonLowChance})
				delete(m.tasks, tk.ID)
			}
		}
	}
	return evicted
}

func (m *mirror) start(now float64) []int {
	var started []int
	for _, mm := range m.machines {
		if mm.Idle() && mm.PendingCount() > 0 && !mm.Down() {
			started = append(started, mm.StartNext(now).ID)
		}
	}
	return started
}

func (m *mirror) decide(spec TaskSpec, now float64, id int) Decision {
	evicted := m.sweep(now)
	tk := task.New(id, spec.Type, now, spec.Deadline)
	if spec.Value > 0 {
		tk.Value = spec.Value
	}
	d := Decision{TaskID: id, Machine: -1, Chance: -1, Now: now, Evicted: evicted}
	if tk.Missed(now) {
		d.Verdict, d.Reason = VerdictDrop, ReasonDeadlineMissed
		d.Threshold = m.pruner.ValuedThreshold(tk.Type, tk.Value)
		m.pruner.RecordReactiveDrop(tk.Type)
		return d
	}
	m.ctx.Now = now
	j := m.imm.Pick(&m.ctx, tk)
	d.Threshold = m.pruner.ValuedThreshold(tk.Type, tk.Value)
	if j < 0 {
		d.Verdict, d.Reason = VerdictDefer, ReasonNoMachine
		return d
	}
	chance := m.machines[j].ChanceIfEnqueued(tk.Type, tk.Deadline, now)
	d.Machine, d.Chance = j, chance
	switch {
	case m.pruner.ShouldDeferValued(chance, tk.Type, tk.Value):
		d.Verdict, d.Reason = VerdictDefer, ReasonLowChance
	case m.pruner.ShouldDropValued(chance, tk.Type, tk.Value):
		d.Verdict, d.Reason = VerdictDrop, ReasonLowChance
		m.pruner.RecordProactiveDrop(tk.Type)
	default:
		d.Verdict = VerdictAccept
		m.machines[j].Enqueue(tk, now)
		m.tasks[id] = tk
		m.start(now)
		d.Started = tk.Status == task.StatusRunning
	}
	return d
}

func (m *mirror) complete(t *testing.T, id int, now float64) []int {
	t.Helper()
	tk, ok := m.tasks[id]
	if !ok || tk.Status != task.StatusRunning {
		t.Fatalf("mirror: task %d not running", id)
	}
	done := m.machines[tk.Machine].Complete(now)
	m.pruner.RecordCompletion(done.Type, done.Status == task.StatusCompletedOnTime)
	delete(m.tasks, id)
	m.sweep(now)
	return m.start(now)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalEvictions(a, b []Eviction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func removeID(ids []int, id int) []int {
	out := ids[:0]
	for _, v := range ids {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}
