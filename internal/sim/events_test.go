package sim

import (
	"reflect"
	"testing"

	"prunesim/internal/clock"
	"prunesim/internal/core"
	"prunesim/internal/sched"
	"prunesim/internal/task"
)

// churnSchedule is a representative mixed event schedule against the
// standard 8-machine cluster over a 600-unit span: one failure + rejoin,
// one degradation + restore, one maintenance-style fail/join pair and a
// capacity scale-out.
func churnSchedule() []PlatformEvent {
	return []PlatformEvent{
		{Time: 80, Kind: PlatformFail, Machine: 2},
		{Time: 120, Kind: PlatformDegrade, Machine: 5, Factor: 1.8},
		{Time: 150, Kind: PlatformFail, Machine: 7},
		{Time: 200, Kind: PlatformJoin, Machine: -1, Count: 2, MachineType: -1},
		{Time: 260, Kind: PlatformJoin, Machine: 2},
		{Time: 320, Kind: PlatformJoin, Machine: 7},
		{Time: 400, Kind: PlatformRestore, Machine: 5},
	}
}

func runWithEvents(t *testing.T, cfg Config, trial int, events []PlatformEvent) ([]*task.Task, *Result) {
	t.Helper()
	tasks := smallWorkload(2500, trial)
	cfg.Events = events
	res, err := Run(hcMatrix, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tasks, res
}

// TestEmptyEventsBitwiseIdenticalToStaticPath is the equivalence guarantee:
// a nil Events slice, an empty non-nil slice, and (by construction of the
// guards) the pre-events static code path all produce identical outcomes.
func TestEmptyEventsBitwiseIdenticalToStaticPath(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  func() Config
	}{
		{"batch-MM", func() Config { return batchCfg(sched.NewMM(), core.DefaultConfig(12)) }},
		{"immediate-MCT", func() Config { return immCfg(sched.NewMCT(), core.DefaultConfig(12)) }},
		{"immediate-RR", func() Config { return immCfg(sched.NewRR(), core.Disabled(12)) }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			_, nilRes := runWithEvents(t, mode.cfg(), 3, nil)
			_, emptyRes := runWithEvents(t, mode.cfg(), 3, []PlatformEvent{})
			if !reflect.DeepEqual(nilRes, emptyRes) {
				t.Fatalf("nil vs empty events diverge:\n%+v\n%+v", nilRes, emptyRes)
			}
			if nilRes.PlatformEvents != 0 || nilRes.Requeues != 0 {
				t.Fatalf("static run reports platform activity: %+v", nilRes)
			}
		})
	}
}

// TestEventsDeterministic: same seed, same schedule => identical outcomes,
// including the task-level terminal states.
func TestEventsDeterministic(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  func() Config
	}{
		{"batch-MM", func() Config { return batchCfg(sched.NewMM(), core.DefaultConfig(12)) }},
		{"batch-MSD", func() Config { return batchCfg(sched.NewMSD(), core.Disabled(12)) }},
		{"immediate-MCT", func() Config { return immCfg(sched.NewMCT(), core.DefaultConfig(12)) }},
		{"immediate-KPB", func() Config { return immCfg(sched.NewKPB(30), core.Disabled(12)) }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			tasksA, resA := runWithEvents(t, mode.cfg(), 5, churnSchedule())
			tasksB, resB := runWithEvents(t, mode.cfg(), 5, churnSchedule())
			if !reflect.DeepEqual(resA, resB) {
				t.Fatalf("results diverge across identical runs:\n%+v\n%+v", resA, resB)
			}
			for i := range tasksA {
				if tasksA[i].Status != tasksB[i].Status || tasksA[i].Machine != tasksB[i].Machine ||
					tasksA[i].Completion != tasksB[i].Completion {
					t.Fatalf("task %d diverges: %+v vs %+v", i, tasksA[i], tasksB[i])
				}
			}
			if resA.PlatformEvents != len(churnSchedule()) {
				t.Fatalf("executed %d platform events, want %d", resA.PlatformEvents, len(churnSchedule()))
			}
		})
	}
}

// TestFailRequeuesWork: a machine failure mid-run orphans its queue back to
// the arrival queue, the orphans complete after re-mapping, and the trial
// conserves every task. All tasks arrive at t=0 with far deadlines and the
// failure fires before any completion can (executions are at least
// minDuration but realistically take whole time units), so the failing
// machine is guaranteed to hold work.
func TestFailRequeuesWork(t *testing.T) {
	events := []PlatformEvent{
		{Time: 1e-5, Kind: PlatformFail, Machine: 0},
		{Time: 5e4, Kind: PlatformJoin, Machine: 0},
	}
	mkTasks := func() []*task.Task {
		ts := make([]*task.Task, 8)
		for i := range ts {
			ts[i] = task.New(i, i%3, 0, 1e9)
		}
		return ts
	}
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"batch", Config{Mode: BatchMode, Heuristic: sched.NewMM(), MachineTypes: []int{0, 1},
			Slots: 2, Prune: core.Disabled(12), Seed: 7}},
		{"immediate", Config{Mode: ImmediateMode, Heuristic: sched.NewMCT(), MachineTypes: []int{0, 1},
			Prune: core.Disabled(12), Seed: 7}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := mode.cfg
			cfg.Events = events
			res, err := Run(hcMatrix, mkTasks(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Requeues == 0 {
				t.Fatal("failure of a loaded machine requeued nothing")
			}
			if res.PlatformEvents != 2 {
				t.Fatalf("platform events %d, want 2", res.PlatformEvents)
			}
			if got := res.OnTime + res.Late; got != 8 {
				t.Fatalf("completed %d of 8 tasks (deadlines are infinite)", got)
			}
		})
	}
}

// TestPlatformEventPopsBeforeSameTimeArrival pins the tie-break: a failure
// scheduled at exactly an arrival's timestamp is applied before the arrival
// is mapped, so the arrival can never land on the failing machine.
func TestPlatformEventPopsBeforeSameTimeArrival(t *testing.T) {
	matrix := homMatrix
	tasks := []*task.Task{
		task.New(0, 0, 50, 1e9),
		task.New(1, 0, 60, 1e9),
		task.New(2, 0, 70, 1e9),
	}
	var order []string
	cfg := Config{
		Mode: ImmediateMode, Heuristic: sched.NewRR(), MachineTypes: []int{0, 0},
		Prune: core.Disabled(12), Seed: 1,
		Events: []PlatformEvent{{Time: 50, Kind: PlatformFail, Machine: 0}},
		Observer: func(e TraceEvent) {
			if e.Time == 50 {
				order = append(order, e.Kind.String())
			}
			if e.Kind == TraceMapped && e.Machine == 0 {
				t.Fatalf("task %d mapped onto failed machine 0", e.TaskID)
			}
		},
	}
	if _, err := Run(matrix, tasks, cfg); err != nil {
		t.Fatal(err)
	}
	if len(order) < 2 || order[0] != "machine-failed" || order[1] != "arrived" {
		t.Fatalf("event order at t=50: %v, want machine-failed before arrived", order)
	}
}

// TestAllMachinesDownParksWork: with every machine down, arrivals park in
// the arrival queue (no panic, no mapping), then drain after a join; the
// run conserves all tasks either way.
func TestAllMachinesDownParksWork(t *testing.T) {
	tasks := []*task.Task{
		task.New(0, 0, 10, 1e9),
		task.New(1, 1, 20, 1e9),
		task.New(2, 2, 120, 1e9),
	}
	events := []PlatformEvent{
		{Time: 5, Kind: PlatformFail, Machine: 0},
		{Time: 6, Kind: PlatformFail, Machine: 1},
		{Time: 100, Kind: PlatformJoin, Machine: 0},
	}
	cfg := Config{
		Mode: ImmediateMode, Heuristic: sched.NewMCT(), MachineTypes: []int{0, 1},
		Prune: core.Disabled(12), Seed: 1, Events: events,
	}
	res, err := Run(hcMatrix, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.OnTime + res.Late; got != 3 {
		t.Fatalf("completed %d of 3 tasks after rejoin (deadlines are infinite)", got)
	}
	bCfg := Config{
		Mode: BatchMode, Heuristic: sched.NewMM(), MachineTypes: []int{0, 1},
		Slots: 2, Prune: core.Disabled(12), Seed: 1, Events: events,
	}
	tasks2 := []*task.Task{
		task.New(0, 0, 10, 1e9),
		task.New(1, 1, 20, 1e9),
		task.New(2, 2, 120, 1e9),
	}
	res2, err := Run(hcMatrix, tasks2, bCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.OnTime + res2.Late; got != 3 {
		t.Fatalf("batch: completed %d of 3 tasks after rejoin", got)
	}
}

// TestCapacityJoinAddsUsableMachines: machines added mid-run execute work.
func TestCapacityJoinAddsUsableMachines(t *testing.T) {
	events := []PlatformEvent{
		{Time: 100, Kind: PlatformJoin, Machine: -1, Count: 4, MachineType: 0},
	}
	var sawNewMachine bool
	cfg := batchCfg(sched.NewMM(), core.Disabled(12))
	cfg.Observer = func(e TraceEvent) {
		if e.Kind == TraceStarted && e.Machine >= 8 {
			sawNewMachine = true
		}
	}
	tasks := smallWorkload(2500, 2)
	cfg.Events = events
	if _, err := Run(hcMatrix, tasks, cfg); err != nil {
		t.Fatal(err)
	}
	if !sawNewMachine {
		t.Fatal("no task ever started on a scaled-out machine")
	}
}

// TestDegradeSlowsMachine: a degraded machine's completions take longer, so
// total busy time rises versus the same trial without the degrade.
func TestDegradeSlowsMachine(t *testing.T) {
	cfg := batchCfg(sched.NewMM(), core.Disabled(12))
	tasks, base := runWithEvents(t, cfg, 4, nil)
	_ = tasks
	cfg2 := batchCfg(sched.NewMM(), core.Disabled(12))
	// Degrade half the cluster 3x for most of the span.
	var events []PlatformEvent
	for j := 0; j < 4; j++ {
		events = append(events, PlatformEvent{Time: 10, Kind: PlatformDegrade, Machine: j, Factor: 3})
	}
	_, degraded := runWithEvents(t, cfg2, 4, events)
	if degraded.BusyTime <= base.BusyTime {
		t.Fatalf("degraded busy time %v <= baseline %v", degraded.BusyTime, base.BusyTime)
	}
}

// TestValidateEventsRejectsBadSchedules covers the shared validator.
func TestValidateEventsRejectsBadSchedules(t *testing.T) {
	cases := []struct {
		name   string
		events []PlatformEvent
	}{
		{"negative time", []PlatformEvent{{Time: -1, Kind: PlatformFail, Machine: 0}}},
		{"unsorted", []PlatformEvent{{Time: 10, Kind: PlatformFail, Machine: 0}, {Time: 5, Kind: PlatformJoin, Machine: 0}}},
		{"double fail", []PlatformEvent{{Time: 1, Kind: PlatformFail, Machine: 0}, {Time: 2, Kind: PlatformFail, Machine: 0}}},
		{"join while up", []PlatformEvent{{Time: 1, Kind: PlatformJoin, Machine: 0}}},
		{"machine out of range", []PlatformEvent{{Time: 1, Kind: PlatformFail, Machine: 8}}},
		{"bad capacity count", []PlatformEvent{{Time: 1, Kind: PlatformJoin, Machine: -1, Count: 0}}},
		{"bad machine type", []PlatformEvent{{Time: 1, Kind: PlatformJoin, Machine: -1, Count: 1, MachineType: 99}}},
		{"degrade down machine", []PlatformEvent{{Time: 1, Kind: PlatformFail, Machine: 0}, {Time: 2, Kind: PlatformDegrade, Machine: 0, Factor: 2}}},
		{"bad factor", []PlatformEvent{{Time: 1, Kind: PlatformDegrade, Machine: 0, Factor: 0}}},
		{"unknown kind", []PlatformEvent{{Time: 1, Kind: PlatformEventKind(42), Machine: 0}}},
		{"join past the machine bound", []PlatformEvent{{Time: 1, Kind: PlatformJoin, Machine: -1, Count: MaxMachines - 7, MachineType: -1}}},
		// Without an overflow-safe bound the running total wraps negative
		// and the later fail of machine 0 looks in range.
		{"joins overflowing int", []PlatformEvent{
			{Time: 1, Kind: PlatformJoin, Machine: -1, Count: 1 << 62, MachineType: -1},
			{Time: 2, Kind: PlatformJoin, Machine: -1, Count: 1 << 62, MachineType: -1},
			{Time: 3, Kind: PlatformFail, Machine: 0},
		}},
	}
	for _, c := range cases {
		if err := ValidateEvents(8, 8, c.events); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// A capacity join extends the cluster, making higher indices valid.
	ok := []PlatformEvent{
		{Time: 1, Kind: PlatformJoin, Machine: -1, Count: 2, MachineType: -1},
		{Time: 2, Kind: PlatformFail, Machine: 9},
		{Time: 3, Kind: PlatformJoin, Machine: 9},
	}
	if err := ValidateEvents(8, 8, ok); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	// Joins may fill the cluster exactly to the bound, but not start past it.
	full := []PlatformEvent{{Time: 1, Kind: PlatformJoin, Machine: -1, Count: MaxMachines - 8, MachineType: -1}}
	if err := ValidateEvents(8, 8, full); err != nil {
		t.Errorf("join up to MaxMachines rejected: %v", err)
	}
	if err := ValidateEvents(MaxMachines+1, 8, nil); err == nil {
		t.Error("cluster above MaxMachines accepted")
	}
}

// TestSimulatedClockIsDefaultEquivalent: attaching an explicit Simulated
// clock changes nothing about the outcome.
func TestSimulatedClockIsDefaultEquivalent(t *testing.T) {
	cfg := batchCfg(sched.NewMM(), core.DefaultConfig(12))
	_, plain := runWithEvents(t, cfg, 6, churnSchedule())
	cfg2 := batchCfg(sched.NewMM(), core.DefaultConfig(12))
	cfg2.Clock = clock.Simulated{}
	_, clocked := runWithEvents(t, cfg2, 6, churnSchedule())
	if !reflect.DeepEqual(plain, clocked) {
		t.Fatalf("Simulated clock changed the outcome:\n%+v\n%+v", plain, clocked)
	}
}

// TestPlatformKindStrings covers the String methods.
func TestPlatformKindStrings(t *testing.T) {
	want := map[PlatformEventKind]string{
		PlatformFail: "fail", PlatformJoin: "join",
		PlatformDegrade: "degrade", PlatformRestore: "restore",
		PlatformEventKind(9): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	for k, s := range map[TraceKind]string{
		TraceRequeued: "requeued", TraceMachineFailed: "machine-failed",
		TraceMachineJoined: "machine-joined", TraceMachineDegraded: "machine-degraded",
		TraceMachineRestored: "machine-restored",
	} {
		if k.String() != s {
			t.Errorf("TraceKind %d = %q, want %q", k, k.String(), s)
		}
	}
}
