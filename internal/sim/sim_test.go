package sim

import (
	"math"
	"testing"

	"prunesim/internal/core"
	"prunesim/internal/pet"
	"prunesim/internal/sched"
	"prunesim/internal/task"
	"prunesim/internal/workload"
)

var (
	hcMatrix   = pet.Standard(pet.DefaultParams())
	homMatrix  = pet.Homogeneous(pet.DefaultParams())
	hcMachines = []int{0, 1, 2, 3, 4, 5, 6, 7}
	homMachs   = []int{0, 0, 0, 0, 0, 0, 0, 0}
)

// mustGenerate wraps workload.Generate for test helpers whose configs are
// valid by construction.
func mustGenerate(m *pet.Matrix, cfg workload.Config) []*task.Task {
	tasks, err := workload.Generate(m, cfg)
	if err != nil {
		panic(err)
	}
	return tasks
}

// smallWorkload returns a quick oversubscribed workload for integration
// tests.
func smallWorkload(n int, trial int) []*task.Task {
	cfg := workload.DefaultConfig(n)
	cfg.TimeSpan = 600
	cfg.NumSpikes = 3
	cfg.Trial = trial
	return mustGenerate(hcMatrix, cfg)
}

func smallHomWorkload(n, trial int) []*task.Task {
	cfg := workload.DefaultConfig(n)
	cfg.TimeSpan = 600
	cfg.NumSpikes = 3
	cfg.Trial = trial
	return mustGenerate(homMatrix, cfg)
}

func batchCfg(h sched.Batch, prune core.Config) Config {
	return Config{
		Mode: BatchMode, Heuristic: h, MachineTypes: hcMachines,
		Slots: 2, Prune: prune, Seed: 7, ExcludeBoundary: 50,
	}
}

func immCfg(h sched.Immediate, prune core.Config) Config {
	return Config{
		Mode: ImmediateMode, Heuristic: h, MachineTypes: hcMachines,
		Prune: prune, Seed: 7, ExcludeBoundary: 50,
	}
}

func TestRunValidation(t *testing.T) {
	tasks := smallWorkload(500, 0)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no machines", Config{Mode: BatchMode, Heuristic: sched.NewMM()}},
		{"bad machine type", Config{Mode: BatchMode, Heuristic: sched.NewMM(), MachineTypes: []int{99}}},
		{"negative machine type", Config{Mode: BatchMode, Heuristic: sched.NewMM(), MachineTypes: []int{-1}}},
		{"mode mismatch imm", Config{Mode: BatchMode, Heuristic: sched.NewMCT(), MachineTypes: hcMachines}},
		{"mode mismatch batch", Config{Mode: ImmediateMode, Heuristic: sched.NewMM(), MachineTypes: hcMachines}},
		{"nil heuristic", Config{Mode: BatchMode, MachineTypes: hcMachines}},
		{"negative slots", Config{Mode: BatchMode, Heuristic: sched.NewMM(), MachineTypes: hcMachines, Slots: -1}},
		{"bad prune", Config{Mode: BatchMode, Heuristic: sched.NewMM(), MachineTypes: hcMachines,
			Prune: core.Config{NumTaskTypes: 12, Threshold: 2}}},
		{"prune type mismatch", Config{Mode: BatchMode, Heuristic: sched.NewMM(), MachineTypes: hcMachines,
			Prune: core.Disabled(3)}},
		{"exclude too large", Config{Mode: BatchMode, Heuristic: sched.NewMM(), MachineTypes: hcMachines,
			ExcludeBoundary: len(tasks)}},
	}
	for _, c := range cases {
		if _, err := Run(hcMatrix, tasks, c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := Run(nil, tasks, batchCfg(sched.NewMM(), core.Disabled(12))); err == nil {
		t.Error("nil matrix: expected error")
	}
}

// TestValidateAllocatesNothing: Validate only checks the configuration; it
// builds no machines, pruner or tallies.
func TestValidateAllocatesNothing(t *testing.T) {
	cfg := batchCfg(sched.NewMM(), core.DefaultConfig(12))
	if err := Validate(hcMatrix, cfg); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() { _ = Validate(hcMatrix, cfg) }); allocs != 0 {
		t.Fatalf("Validate allocates %v per call, want 0", allocs)
	}
}

func TestConservationAllHeuristics(t *testing.T) {
	tasks := func() []*task.Task { return smallWorkload(2500, 1) }
	homTasks := func() []*task.Task { return smallHomWorkload(2500, 1) }
	for _, name := range sched.Names() {
		for _, prune := range []core.Config{core.Disabled(12), core.DefaultConfig(12)} {
			h, imm, err := sched.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var cfg Config
			var ts []*task.Task
			switch name {
			case "FCFS-RR", "EDF", "SJF": // homogeneous heuristics
				cfg = Config{Mode: BatchMode, Heuristic: h, MachineTypes: homMachs,
					Slots: 2, Prune: prune, Seed: 7, ExcludeBoundary: 50}
				ts = homTasks()
				res, err := Run(homMatrix, ts, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkResult(t, name, res, ts)
				continue
			default:
				if imm {
					cfg = immCfg(h.(sched.Immediate), prune)
				} else {
					cfg = batchCfg(h.(sched.Batch), prune)
				}
				ts = tasks()
			}
			res, err := Run(hcMatrix, ts, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkResult(t, name, res, ts)
		}
	}
}

func checkResult(t *testing.T, name string, res *Result, tasks []*task.Task) {
	t.Helper()
	if res.Counted != len(tasks)-100 {
		t.Errorf("%s: counted %d, want %d", name, res.Counted, len(tasks)-100)
	}
	sum := res.OnTime + res.Late + res.DroppedReactive + res.DroppedProactive + res.Unfinished
	if sum != res.Counted {
		t.Errorf("%s: outcome sum %d != counted %d", name, sum, res.Counted)
	}
	if res.Robustness < 0 || res.Robustness > 100 {
		t.Errorf("%s: robustness %v out of range", name, res.Robustness)
	}
	if res.OnTime == 0 {
		t.Errorf("%s: zero on-time completions — simulation degenerate", name)
	}
	var perType int
	for _, n := range res.PerTypeOnTime {
		perType += n
	}
	if perType != res.OnTime {
		t.Errorf("%s: per-type on-time sum %d != %d", name, perType, res.OnTime)
	}
	if res.WastedTime > res.BusyTime {
		t.Errorf("%s: wasted %v exceeds busy %v", name, res.WastedTime, res.BusyTime)
	}
	// Every task must have left the pipeline (terminal or never-arrived is
	// impossible after a full run; Unfinished is the explicit leftover).
	for _, tk := range tasks {
		switch tk.Status {
		case task.StatusCompletedOnTime, task.StatusCompletedLate,
			task.StatusDroppedReactive, task.StatusDroppedProactive:
		case task.StatusBatchQueued, task.StatusMachineQueued:
			// allowed: counted as Unfinished if inside window and not missed
		default:
			t.Errorf("%s: task %d finished run in status %v", name, tk.ID, tk.Status)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Run(hcMatrix, smallWorkload(2000, 2), batchCfg(sched.NewMM(), core.DefaultConfig(12)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.OnTime != b.OnTime || a.DroppedProactive != b.DroppedProactive ||
		a.Deferrals != b.Deferrals || a.Robustness != b.Robustness {
		t.Fatalf("identical configs diverged: %+v vs %+v", a, b)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := batchCfg(sched.NewMM(), core.Disabled(12))
	a, err := Run(hcMatrix, smallWorkload(2000, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 999
	b, err := Run(hcMatrix, smallWorkload(2000, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.OnTime == b.OnTime && a.Late == b.Late && a.DroppedReactive == b.DroppedReactive {
		t.Fatal("different execution-time seeds produced identical outcomes (suspicious)")
	}
}

func TestPruningImprovesOversubscribedBatch(t *testing.T) {
	// The paper's headline claim, tested at a clearly oversubscribed level
	// with the heuristic that benefits most (MSD).
	base, err := Run(hcMatrix, smallWorkload(4000, 3), batchCfg(sched.NewMSD(), core.Disabled(12)))
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Run(hcMatrix, smallWorkload(4000, 3), batchCfg(sched.NewMSD(), core.DefaultConfig(12)))
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Robustness <= base.Robustness {
		t.Fatalf("pruning did not improve MSD robustness: %.1f%% -> %.1f%%",
			base.Robustness, pruned.Robustness)
	}
}

func TestDisabledPrunerNeverDropsProactively(t *testing.T) {
	res, err := Run(hcMatrix, smallWorkload(3000, 4), batchCfg(sched.NewMM(), core.Disabled(12)))
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedProactive != 0 || res.Deferrals != 0 {
		t.Fatalf("disabled pruner produced %d proactive drops, %d deferrals",
			res.DroppedProactive, res.Deferrals)
	}
}

func TestDeferOnlyConfiguration(t *testing.T) {
	cfg := core.DefaultConfig(12)
	cfg.DropMode = core.ToggleNever
	res, err := Run(hcMatrix, smallWorkload(3000, 4), batchCfg(sched.NewMM(), cfg))
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedProactive != 0 {
		t.Fatalf("defer-only config dropped %d tasks proactively", res.DroppedProactive)
	}
	if res.Deferrals == 0 {
		t.Fatal("defer-only config never deferred under oversubscription")
	}
}

func TestDropOnlyConfiguration(t *testing.T) {
	cfg := core.DefaultConfig(12)
	cfg.DeferEnabled = false
	res, err := Run(hcMatrix, smallWorkload(3000, 4), batchCfg(sched.NewMM(), cfg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Deferrals != 0 {
		t.Fatalf("drop-only config deferred %d times", res.Deferrals)
	}
	if res.DroppedProactive == 0 {
		t.Fatal("drop-only config never dropped under oversubscription")
	}
}

func TestImmediateModeNeverDefers(t *testing.T) {
	res, err := Run(hcMatrix, smallWorkload(3000, 5), immCfg(sched.NewMCT(), core.DefaultConfig(12)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Deferrals != 0 {
		t.Fatalf("immediate mode deferred %d times (no arrival queue exists)", res.Deferrals)
	}
	if res.OnTime == 0 {
		t.Fatal("degenerate immediate-mode run")
	}
}

func TestImmediateModeProactiveDropsWhenToggled(t *testing.T) {
	res, err := Run(hcMatrix, smallWorkload(4000, 5), immCfg(sched.NewMCT(), core.DefaultConfig(12)))
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedProactive == 0 {
		t.Fatal("immediate mode with reactive toggle never dropped proactively under oversubscription")
	}
}

func TestUndersubscribedNearPerfect(t *testing.T) {
	// Very light load: nearly everything should complete on time and the
	// pruner should hardly ever engage.
	cfg := workload.DefaultConfig(300)
	cfg.TimeSpan = 600
	cfg.NumSpikes = 3
	tasks := mustGenerate(hcMatrix, cfg)
	res, err := Run(hcMatrix, tasks, Config{
		Mode: BatchMode, Heuristic: sched.NewMM(), MachineTypes: hcMachines,
		Slots: 2, Prune: core.DefaultConfig(12), Seed: 7, ExcludeBoundary: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Robustness < 95 {
		t.Fatalf("undersubscribed robustness %.1f%%, want >= 95%%", res.Robustness)
	}
}

func TestOversubscriptionMonotonicity(t *testing.T) {
	// More load should never increase robustness (within noise, so require
	// a clear drop across a 3x load increase).
	light, err := Run(hcMatrix, smallWorkload(1500, 6), batchCfg(sched.NewMM(), core.Disabled(12)))
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := Run(hcMatrix, smallWorkload(4500, 6), batchCfg(sched.NewMM(), core.Disabled(12)))
	if err != nil {
		t.Fatal(err)
	}
	if heavy.Robustness >= light.Robustness {
		t.Fatalf("robustness did not fall with 3x load: %.1f%% -> %.1f%%",
			light.Robustness, heavy.Robustness)
	}
}

func TestHomogeneousHeuristics(t *testing.T) {
	for _, name := range []string{"FCFS-RR", "EDF", "SJF"} {
		h, _, err := sched.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		base, err := Run(homMatrix, smallHomWorkload(4000, 7), Config{
			Mode: BatchMode, Heuristic: h, MachineTypes: homMachs,
			Slots: 2, Prune: core.Disabled(12), Seed: 7, ExcludeBoundary: 50,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h2, _, _ := sched.ByName(name)
		pruned, err := Run(homMatrix, smallHomWorkload(4000, 7), Config{
			Mode: BatchMode, Heuristic: h2, MachineTypes: homMachs,
			Slots: 2, Prune: core.DefaultConfig(12), Seed: 7, ExcludeBoundary: 50,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pruned.Robustness <= base.Robustness-3 {
			t.Errorf("%s: pruning clearly hurt on homogeneous system: %.1f%% -> %.1f%%",
				name, base.Robustness, pruned.Robustness)
		}
	}
}

func TestSlotsDefaulted(t *testing.T) {
	cfg := batchCfg(sched.NewMM(), core.Disabled(12))
	cfg.Slots = 0
	res, err := Run(hcMatrix, smallWorkload(1000, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OnTime == 0 {
		t.Fatal("defaulted slots produced degenerate run")
	}
}

func TestPrunerTypesDefaulted(t *testing.T) {
	cfg := batchCfg(sched.NewMM(), core.Config{Enabled: false})
	cfg.Prune.NumTaskTypes = 0 // must be defaulted to the matrix size
	if _, err := Run(hcMatrix, smallWorkload(1000, 8), cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMakespanAndBusyTime(t *testing.T) {
	tasks := smallWorkload(1500, 9)
	res, err := Run(hcMatrix, tasks, batchCfg(sched.NewMM(), core.Disabled(12)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("makespan not recorded")
	}
	if res.BusyTime <= 0 {
		t.Fatal("busy time not recorded")
	}
	// Busy time cannot exceed machines * makespan.
	if res.BusyTime > float64(len(hcMachines))*res.Makespan*(1+1e-9) {
		t.Fatalf("busy time %v exceeds capacity %v", res.BusyTime, float64(len(hcMachines))*res.Makespan)
	}
}

func TestRobustnessMatchesCounts(t *testing.T) {
	res, err := Run(hcMatrix, smallWorkload(2000, 10), batchCfg(sched.NewMMU(), core.DefaultConfig(12)))
	if err != nil {
		t.Fatal(err)
	}
	want := 100 * float64(res.OnTime) / float64(res.Counted)
	if math.Abs(res.Robustness-want) > 1e-9 {
		t.Fatalf("robustness %v != recomputed %v", res.Robustness, want)
	}
}

func TestModeString(t *testing.T) {
	if BatchMode.String() != "batch" || ImmediateMode.String() != "immediate" || Mode(9).String() != "unknown" {
		t.Fatal("mode strings wrong")
	}
}
