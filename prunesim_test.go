package prunesim_test

import (
	"math"
	"reflect"
	"testing"

	"prunesim"
	"prunesim/internal/calibration"
	"prunesim/internal/sched"
	"prunesim/internal/sim"
)

func TestQuickstartFlow(t *testing.T) {
	matrix := prunesim.StandardPET()
	platform, err := prunesim.NewPlatform(prunesim.PlatformConfig{
		Matrix:          matrix,
		Heuristic:       "MM",
		Pruning:         prunesim.DefaultPruning(matrix.NumTaskTypes()),
		Seed:            1,
		ExcludeBoundary: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	wcfg := prunesim.DefaultWorkload(2000)
	wcfg.TimeSpan = 500
	wcfg.NumSpikes = 2
	res, err := platform.RunTrial(wcfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Robustness <= 0 || res.Robustness > 100 {
		t.Fatalf("robustness %v", res.Robustness)
	}
	if res.Counted == 0 {
		t.Fatal("nothing counted")
	}
}

func TestPlatformDefaults(t *testing.T) {
	p, err := prunesim.NewPlatform(prunesim.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	if cfg.Matrix == nil || cfg.Heuristic != "MM" || len(cfg.MachineTypes) != 8 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.Pruning.NumTaskTypes != cfg.Matrix.NumTaskTypes() {
		t.Fatal("pruning types not defaulted")
	}
}

func TestPlatformImmediateDefaults(t *testing.T) {
	p, err := prunesim.NewPlatform(prunesim.PlatformConfig{Mode: prunesim.ImmediateAllocation})
	if err != nil {
		t.Fatal(err)
	}
	if p.Config().Heuristic != "MCT" {
		t.Fatalf("immediate default heuristic = %q", p.Config().Heuristic)
	}
}

func TestPlatformValidation(t *testing.T) {
	cases := []prunesim.PlatformConfig{
		{Heuristic: "NOPE"},
		{Heuristic: "MCT"}, // immediate heuristic, batch mode
		{Heuristic: "MM", Mode: prunesim.ImmediateAllocation}, // batch heuristic, immediate mode
		{Mode: prunesim.ImmediateAllocation, QueueSlots: -1},
		{Pruning: prunesim.PruningConfig{NumTaskTypes: 12, Threshold: 7}},
	}
	for i, cfg := range cases {
		if _, err := prunesim.NewPlatform(cfg); err == nil {
			t.Errorf("case %d: config accepted: %+v", i, cfg)
		}
	}
}

func TestPlatformEmptyWorkload(t *testing.T) {
	p, err := prunesim.NewPlatform(prunesim.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(nil); err == nil {
		t.Fatal("empty workload accepted")
	}
}

// TestPlatformRunRejectsMalformedWorkload: a hand-built workload whose IDs
// are not 0..n-1, or whose arrivals go backwards, is an error — never a
// panic.
func TestPlatformRunRejectsMalformedWorkload(t *testing.T) {
	p, err := prunesim.NewPlatform(prunesim.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for name, tasks := range map[string][]*prunesim.Task{
		"IDs not 0..n-1": {
			prunesim.NewTask(5, 0, 1, 100), prunesim.NewTask(6, 1, 2, 100), prunesim.NewTask(7, 2, 3, 100),
		},
		"arrivals out of order": {
			prunesim.NewTask(0, 0, 3, 100), prunesim.NewTask(1, 1, 2, 100), prunesim.NewTask(2, 2, 1, 100),
		},
	} {
		if _, err := p.Run(tasks); err == nil {
			t.Errorf("%s: workload accepted", name)
		}
	}
}

func TestPruningImprovesViaFacade(t *testing.T) {
	matrix := prunesim.StandardPET()
	wcfg := prunesim.DefaultWorkload(4000)
	wcfg.TimeSpan = 600
	wcfg.NumSpikes = 3

	run := func(pruning prunesim.PruningConfig) float64 {
		p, err := prunesim.NewPlatform(prunesim.PlatformConfig{
			Matrix: matrix, Heuristic: "MSD", Pruning: pruning, Seed: 5, ExcludeBoundary: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.RunTrial(wcfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Robustness
	}
	base := run(prunesim.NoPruning(12))
	pruned := run(prunesim.DefaultPruning(12))
	if pruned <= base {
		t.Fatalf("pruning did not improve robustness: %.1f%% -> %.1f%%", base, pruned)
	}
}

func TestObserverViaFacade(t *testing.T) {
	events := 0
	p, err := prunesim.NewPlatform(prunesim.PlatformConfig{
		Seed:     2,
		Observer: func(prunesim.TraceEvent) { events++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	wcfg := prunesim.DefaultWorkload(500)
	wcfg.TimeSpan = 300
	wcfg.NumSpikes = 1
	if _, err := p.RunTrial(wcfg, 0); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("observer never invoked")
	}
}

func TestPMFFacade(t *testing.T) {
	// The paper's Figure 2 worked example through the public API.
	petPMF := prunesim.NewPMF(1, 1, []float64{0.75, 0.125, 0.125}, 0)
	queuePCT := prunesim.NewPMF(4, 1, []float64{0.5, 0.33, 0.17}, 0)
	pct := petPMF.Convolve(queuePCT)
	// P(PCT<=7) = mass at 5 (0.375) + 6 (0.31) + 7 (0.23125).
	if got := pct.ProbLE(7); math.Abs(got-0.91625) > 1e-9 {
		t.Fatalf("chance of success by t=7: %v", got)
	}
}

func TestEnergyFacade(t *testing.T) {
	p, err := prunesim.NewPlatform(prunesim.PlatformConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	wcfg := prunesim.DefaultWorkload(1000)
	wcfg.TimeSpan = 400
	wcfg.NumSpikes = 2
	res, err := p.RunTrial(wcfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := prunesim.AnalyzeEnergy(res, 8, prunesim.DefaultEnergyParams())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalJoules <= 0 {
		t.Fatal("no energy computed")
	}
}

func TestFigureRegistryViaFacade(t *testing.T) {
	names := prunesim.FigureNames()
	if len(names) != 14 { // 12 paper figures/ablations + the arrivals and churn sensitivity drivers
		t.Fatalf("figure names: %v", names)
	}
	fr, err := prunesim.RunFigure("6", prunesim.FigureOptions{Trials: 1, Scale: 0.05, Seed: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Points) == 0 {
		t.Fatal("figure 6 empty")
	}
}

func TestHeuristicNamesMatchPlatform(t *testing.T) {
	for _, name := range prunesim.HeuristicNames() {
		mode := prunesim.BatchAllocation
		switch name {
		case "RR", "MET", "MCT", "KPB", "OLB":
			mode = prunesim.ImmediateAllocation
		}
		if _, err := prunesim.NewPlatform(prunesim.PlatformConfig{Heuristic: name, Mode: mode}); err != nil {
			t.Errorf("heuristic %q rejected: %v", name, err)
		}
	}
}

func TestSummarizeFacade(t *testing.T) {
	s := prunesim.Summarize([]float64{1, 2, 3})
	if s.Mean != 2 || s.N != 3 {
		t.Fatalf("summary %+v", s)
	}
}

func TestCustomPETMatrix(t *testing.T) {
	m := prunesim.NewPETMatrix(
		[][]float64{{1, 2}, {2, 1}},
		[]string{"encode", "scale"},
		[]string{"cpu", "gpu"},
		prunesim.DefaultPETParams(),
	)
	if m.NumTaskTypes() != 2 || m.NumMachineTypes() != 2 {
		t.Fatal("custom matrix dims wrong")
	}
	p, err := prunesim.NewPlatform(prunesim.PlatformConfig{
		Matrix:       m,
		MachineTypes: []int{0, 1},
		Heuristic:    "MM",
		Pruning:      prunesim.DefaultPruning(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	wcfg := prunesim.DefaultWorkload(500)
	wcfg.TimeSpan = 400
	wcfg.NumSpikes = 2
	res, err := p.RunTrial(wcfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.OnTime == 0 {
		t.Fatal("degenerate custom-matrix run")
	}
}

func TestAssessCalibrationViaFacade(t *testing.T) {
	matrix := prunesim.StandardPET()
	p, err := prunesim.NewPlatform(prunesim.PlatformConfig{
		Matrix:          matrix,
		Heuristic:       "MM",
		Pruning:         prunesim.NoPruning(matrix.NumTaskTypes()),
		Seed:            4,
		ExcludeBoundary: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	wcfg := prunesim.DefaultWorkload(2000)
	wcfg.TimeSpan = 600
	wcfg.NumSpikes = 2
	tasks, err := prunesim.GenerateWorkload(matrix, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.AssessCalibration(tasks, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mapped == 0 {
		t.Fatal("no mapped tasks in calibration report")
	}
	if rep.MeanAbsGap > 0.25 {
		t.Fatalf("estimator badly calibrated via facade: %.1f%%", 100*rep.MeanAbsGap)
	}
}

// TestAssessCalibrationHonorsTailEps: the facade must assess the platform
// it was given, tail compression included — its report equals
// calibration.Assess run directly with TailEps set.
func TestAssessCalibrationHonorsTailEps(t *testing.T) {
	matrix := prunesim.StandardPET()
	p, err := prunesim.NewPlatform(prunesim.PlatformConfig{
		Matrix:          matrix,
		Heuristic:       "MM",
		Pruning:         prunesim.DefaultPruning(matrix.NumTaskTypes()),
		Seed:            4,
		ExcludeBoundary: 50,
		PCTTailEps:      0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	workload := func() []*prunesim.Task {
		wcfg := prunesim.DefaultWorkload(2000)
		wcfg.TimeSpan = 600
		wcfg.NumSpikes = 2
		tasks, err := prunesim.GenerateWorkload(matrix, wcfg)
		if err != nil {
			t.Fatal(err)
		}
		return tasks
	}
	got, err := p.AssessCalibration(workload(), 10)
	if err != nil {
		t.Fatal(err)
	}
	pc := p.Config()
	direct := func(eps float64) *calibration.Report {
		h, _, err := sched.ByName(pc.Heuristic)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := calibration.Assess(matrix, workload(), sim.Config{
			Mode:            pc.Mode,
			Heuristic:       h,
			MachineTypes:    pc.MachineTypes,
			Slots:           pc.QueueSlots,
			Prune:           pc.Pruning,
			Seed:            pc.Seed,
			ExcludeBoundary: pc.ExcludeBoundary,
			TailEps:         eps,
		}, 10)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want, exact := direct(pc.PCTTailEps), direct(0)
	if reflect.DeepEqual(want, exact) {
		t.Fatal("tail compression does not change the report; the check would be vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("facade report differs from calibration.Assess with TailEps %v:\n got %+v\nwant %+v", pc.PCTTailEps, got, want)
	}
}

// TestTrialStreamMatchesTrial: RunTrial streams its workload, yet every
// Platform run path shares one ExcludeBoundary rule, so it agrees with Run
// over the materialized trial even on workloads too small for the
// configured boundary.
func TestTrialStreamMatchesTrial(t *testing.T) {
	p, err := prunesim.NewPlatform(prunesim.PlatformConfig{Seed: 6, ExcludeBoundary: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{40, 200, 201, 203} {
		wcfg := prunesim.DefaultWorkload(n)
		tasks, err := prunesim.GenerateWorkload(p.Config().Matrix, wcfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Run(tasks)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.RunTrial(wcfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: RunTrial differs from Run over the materialized trial:\n got %+v\nwant %+v", n, got, want)
		}
	}
}
