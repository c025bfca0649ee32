package experiments

import (
	"fmt"

	"prunesim/internal/core"
	"prunesim/internal/energy"
	"prunesim/internal/pet"
	"prunesim/internal/scenario"
	"prunesim/internal/sim"
	"prunesim/internal/stats"
	"prunesim/internal/workload"
)

// drivers maps figure names to their regeneration functions.
var drivers = map[string]func(*harness) (*FigureResult, error){
	"6":   fig6,
	"7a":  fig7a,
	"7b":  fig7b,
	"8":   fig8,
	"9a":  func(h *harness) (*FigureResult, error) { return fig9(h, workload.ModelConstant) },
	"9b":  func(h *harness) (*FigureResult, error) { return fig9(h, workload.ModelSpiky) },
	"10a": func(h *harness) (*FigureResult, error) { return fig10(h, workload.ModelConstant) },
	"10b": func(h *harness) (*FigureResult, error) { return fig10(h, workload.ModelSpiky) },
	"a1":  ablationFairness,
	"a2":  ablationSlots,
	"a3":  extensionEnergy,
	"a4":  extensionValueAware,
	// arrivals is not a paper figure: it reruns the Fig. 7b toggle
	// comparison across arrival models, probing whether the pruning
	// mechanism's benefit survives arrival shapes the paper never tested.
	"arrivals": arrivalsSensitivity,
	// churn is not a paper figure either: it repeats the toggle comparison
	// on a platform that fails, rejoins, degrades and surges mid-trial,
	// probing whether pruning's benefit survives machine churn.
	"churn": churnSensitivity,
}

// toggleVariants are the three dropping policies of Figure 7.
var toggleVariants = []struct {
	label string
	mode  core.ToggleMode
}{
	{"no Toggle, no dropping", core.ToggleNever},
	{"no Toggle, always dropping", core.ToggleAlways},
	{"reactive Toggle", core.ToggleReactive},
}

// fig6 dumps the spiky arrival-rate profile (aggregate tasks per time unit
// over the span). The arrival model is compiled once; each of the hundreds
// of per-timestep queries hits only the model's Rate.
func fig6(h *harness) (*FigureResult, error) {
	cfg := workload.DefaultConfig(int(15000 * h.opt.Scale))
	cfg.TimeSpan *= h.opt.Scale
	matrix := pet.Standard(pet.DefaultParams())
	model, err := workload.NewArrivalModel(cfg, matrix.NumTaskTypes())
	if err != nil {
		return nil, err
	}
	const samples = 600
	fr := &FigureResult{
		Name:        "6",
		Title:       "Spiky task arrival pattern (aggregate rate over time)",
		Expectation: "rate alternates between a base (lull) level and spikes at 3x base lasting 1/3 of a lull",
	}
	for i := 0; i <= samples; i++ {
		t := cfg.TimeSpan * float64(i) / samples
		fr.Points = append(fr.Points, Point{X: t, Y: model.Rate(t)})
	}
	return fr, nil
}

// prune7 builds the pruning config for a Figure-7 toggle variant. Deferring
// applies only in batch mode (immediate mode has no arrival queue).
func prune7(mode core.ToggleMode, defer_ bool) core.Config {
	cfg := core.DefaultConfig(12)
	cfg.DropMode = mode
	cfg.DeferEnabled = defer_
	if mode == core.ToggleNever && !defer_ {
		// Nothing probabilistic left: identical to a disabled pruner.
		return core.Disabled(12)
	}
	return cfg
}

func fig7a(h *harness) (*FigureResult, error) {
	fr := &FigureResult{
		Name:        "7a",
		Title:       "Impact of Toggle on immediate-mode heuristics (spiky, 15K)",
		Expectation: "reactive Toggle >= always dropping >= no dropping for MCT/MET/KPB; RR is the exception and KPB is best",
	}
	var cells []scenario.Cell
	for _, tv := range toggleVariants {
		for _, heur := range []string{"RR", "MCT", "MET", "KPB"} {
			cells = append(cells, h.cell(heur, tv.label, point{
				immediate: true,
				heuristic: heur,
				prune:     prune7(tv.mode, false),
				pattern:   workload.ModelSpiky,
				numTasks:  15000,
			}))
		}
	}
	rows, err := h.robustnessRows(cells)
	if err != nil {
		return nil, err
	}
	fr.Rows = rows
	return fr, nil
}

func fig7b(h *harness) (*FigureResult, error) {
	fr := &FigureResult{
		Name:        "7b",
		Title:       "Impact of Toggle on batch-mode heuristics (spiky, 15K)",
		Expectation: "reactive Toggle best for MM/MSD/MMU; batch robustness exceeds immediate",
	}
	var cells []scenario.Cell
	for _, tv := range toggleVariants {
		for _, heur := range []string{"MM", "MSD", "MMU"} {
			cells = append(cells, h.cell(heur, tv.label, point{
				heuristic: heur,
				prune:     prune7(tv.mode, true),
				pattern:   workload.ModelSpiky,
				numTasks:  15000,
			}))
		}
	}
	rows, err := h.robustnessRows(cells)
	if err != nil {
		return nil, err
	}
	fr.Rows = rows
	return fr, nil
}

// fig8 sweeps the pruning threshold for the deferring-only configuration at
// high oversubscription (25K).
func fig8(h *harness) (*FigureResult, error) {
	fr := &FigureResult{
		Name:        "8",
		Title:       "Impact of task deferring threshold on batch-mode heuristics (spiky, 25K)",
		Expectation: "robustness jumps from threshold 0 to 25-50% and plateaus at 50%; heuristics converge",
	}
	var cells []scenario.Cell
	for _, th := range []float64{0, 0.25, 0.50, 0.75} {
		prune := core.DefaultConfig(12)
		prune.DropMode = core.ToggleNever // deferring only
		prune.Threshold = th
		if th == 0 {
			prune = core.Disabled(12) // paper: threshold 0 = no pruning
		}
		for _, heur := range []string{"MM", "MSD", "MMU"} {
			cells = append(cells, h.cell(heur, fmt.Sprintf("%.0f%%", th*100), point{
				heuristic: heur,
				prune:     prune,
				pattern:   workload.ModelSpiky,
				numTasks:  25000,
			}))
		}
	}
	rows, err := h.robustnessRows(cells)
	if err != nil {
		return nil, err
	}
	fr.Rows = rows
	return fr, nil
}

// fig9 compares batch heuristics with and without the full pruning
// mechanism across oversubscription levels.
func fig9(h *harness, pattern string) (*FigureResult, error) {
	name := "9a"
	if pattern == workload.ModelSpiky {
		name = "9b"
	}
	fr := &FigureResult{
		Name:        name,
		Title:       fmt.Sprintf("Pruning on batch-mode HC heuristics (%s arrival)", pattern),
		Expectation: "pruned (-P) variants dominate; the gap widens with oversubscription; MSD/MMU gain most",
	}
	var cells []scenario.Cell
	for _, n := range []int{15000, 20000, 25000} {
		for _, heur := range []string{"MM", "MSD", "MMU"} {
			for _, pruned := range []bool{false, true} {
				prune := core.Disabled(12)
				series := heur
				if pruned {
					prune = core.DefaultConfig(12)
					series += "-P"
				}
				cells = append(cells, h.cell(series, kLabel(n), point{
					heuristic: heur,
					prune:     prune,
					pattern:   pattern,
					numTasks:  n,
				}))
			}
		}
	}
	rows, err := h.robustnessRows(cells)
	if err != nil {
		return nil, err
	}
	fr.Rows = rows
	return fr, nil
}

// fig10 is the homogeneous-system analogue of fig9.
func fig10(h *harness, pattern string) (*FigureResult, error) {
	name := "10a"
	if pattern == workload.ModelSpiky {
		name = "10b"
	}
	fr := &FigureResult{
		Name:        name,
		Title:       fmt.Sprintf("Pruning on homogeneous-system heuristics (%s arrival)", pattern),
		Expectation: "pruning helps homogeneous systems as much as heterogeneous ones; EDF/SJF collapse unpruned at 25K",
	}
	var cells []scenario.Cell
	for _, n := range []int{15000, 20000, 25000} {
		for _, heur := range []string{"FCFS-RR", "SJF", "EDF"} {
			for _, pruned := range []bool{false, true} {
				prune := core.Disabled(12)
				series := heur
				if pruned {
					prune = core.DefaultConfig(12)
					series += "-P"
				}
				cells = append(cells, h.cell(series, kLabel(n), point{
					homogeneous: true,
					heuristic:   heur,
					prune:       prune,
					pattern:     pattern,
					numTasks:    n,
				}))
			}
		}
	}
	rows, err := h.robustnessRows(cells)
	if err != nil {
		return nil, err
	}
	fr.Rows = rows
	return fr, nil
}

// ablationFairness sweeps the fairness factor c (DESIGN.md A1).
func ablationFairness(h *harness) (*FigureResult, error) {
	fr := &FigureResult{
		Name:        "a1",
		Title:       "Ablation: fairness factor c (spiky, 20K, MM/MSD)",
		Expectation: "robustness is largely flat in c; per-type drop spread shrinks as c grows",
	}
	var cells []scenario.Cell
	for _, c := range []float64{0, 0.01, 0.05, 0.20} {
		for _, heur := range []string{"MM", "MSD"} {
			prune := core.DefaultConfig(12)
			prune.FairnessFactor = c
			cells = append(cells, h.cell(heur, fmt.Sprintf("c=%.2f", c), point{
				heuristic: heur,
				prune:     prune,
				pattern:   workload.ModelSpiky,
				numTasks:  20000,
			}))
		}
	}
	res, err := h.sweep(cells)
	if err != nil {
		return nil, err
	}
	for _, cr := range res {
		fr.Rows = append(fr.Rows, Row{
			Series:     cr.Series,
			X:          cr.X,
			Robustness: cr.Outcome.Robustness,
			Extra: map[string]stats.Summary{
				// Per-type drop spread: max-min share of drops across types.
				"drop_spread_pct": stats.Summarize(perTrial(cr.Outcome, dropSpread)),
			},
		})
	}
	return fr, nil
}

// dropSpread measures unfairness as the spread (max - min) of per-type drop
// percentages.
func dropSpread(r *sim.Result) float64 {
	minPct, maxPct := 101.0, -1.0
	for tt := range r.PerTypeDropped {
		total := r.PerTypeDropped[tt] + r.PerTypeOnTime[tt]
		if total == 0 {
			continue
		}
		pct := 100 * float64(r.PerTypeDropped[tt]) / float64(total)
		if pct < minPct {
			minPct = pct
		}
		if pct > maxPct {
			maxPct = pct
		}
	}
	if maxPct < minPct {
		return 0
	}
	return maxPct - minPct
}

// ablationSlots sweeps the per-machine pending-slot capacity (DESIGN.md A2).
func ablationSlots(h *harness) (*FigureResult, error) {
	fr := &FigureResult{
		Name:        "a2",
		Title:       "Ablation: machine-queue pending slots (spiky, 20K, MM with pruning)",
		Expectation: "small queues keep decisions late and accurate; robustness degrades as slots grow",
	}
	var cells []scenario.Cell
	for _, slots := range []int{1, 2, 4, 8} {
		cells = append(cells, h.cell("MM-P", fmt.Sprintf("slots=%d", slots), point{
			heuristic: "MM",
			prune:     core.DefaultConfig(12),
			pattern:   workload.ModelSpiky,
			numTasks:  20000,
			slots:     slots,
		}))
	}
	rows, err := h.robustnessRows(cells)
	if err != nil {
		return nil, err
	}
	fr.Rows = rows
	return fr, nil
}

// extensionEnergy reproduces the Section VII claim: pruning reduces the
// compute wasted on failing tasks (DESIGN.md A3).
func extensionEnergy(h *harness) (*FigureResult, error) {
	fr := &FigureResult{
		Name:        "a3",
		Title:       "Extension: wasted work and energy with vs without pruning (spiky, MM)",
		Expectation: "pruning lowers wasted busy time, wasted energy and joules per on-time task at every level",
	}
	params := energy.DefaultParams()
	var cells []scenario.Cell
	for _, n := range []int{15000, 20000, 25000} {
		for _, pruned := range []bool{false, true} {
			prune := core.Disabled(12)
			series := "MM"
			if pruned {
				prune = core.DefaultConfig(12)
				series = "MM-P"
			}
			cells = append(cells, h.cell(series, kLabel(n), point{
				heuristic: "MM",
				prune:     prune,
				pattern:   workload.ModelSpiky,
				numTasks:  n,
			}))
		}
	}
	res, err := h.sweep(cells)
	if err != nil {
		return nil, err
	}
	for _, cr := range res {
		wastedPct := make([]float64, len(cr.Outcome.Results))
		jptask := make([]float64, len(cr.Outcome.Results))
		for i, r := range cr.Outcome.Results {
			rep, err := energy.Analyze(r, 8, params)
			if err != nil {
				return nil, err
			}
			wastedPct[i] = 100 * rep.WastedFraction
			jptask[i] = rep.JoulesPerOnTimeTask
		}
		fr.Rows = append(fr.Rows, Row{
			Series:     cr.Series,
			X:          cr.X,
			Robustness: cr.Outcome.Robustness,
			Extra: map[string]stats.Summary{
				"wasted_energy_pct":  stats.Summarize(wastedPct),
				"joules_per_on_time": stats.Summarize(jptask),
			},
		})
	}
	return fr, nil
}

// arrivalsSensitivity reruns the Figure 7b-style toggle comparison (MM,
// batch mode, 15K tasks) across arrival models. The paper evaluates its
// mechanism on one arrival shape only; this driver asks whether the
// reactive Toggle's advantage generalizes to Poisson, diurnal and MMPP
// arrivals at the same mean oversubscription.
func arrivalsSensitivity(h *harness) (*FigureResult, error) {
	fr := &FigureResult{
		Name:        "arrivals",
		Title:       "Sensitivity: Toggle policies across arrival models (MM, 15K)",
		Expectation: "pruning's benefit persists across arrival shapes; burstier models (mmpp, spiky) gain the most from the reactive Toggle",
	}
	const tasks = 15000
	models := []struct {
		label string
		wl    scenario.Workload
	}{
		{"spiky", scenario.Workload{Pattern: "spiky", Tasks: tasks}},
		{"poisson", scenario.Workload{Pattern: "poisson", Tasks: tasks}},
		{"diurnal", scenario.Workload{
			Pattern: "diurnal", Tasks: tasks,
			Rate: &workload.DiurnalConfig{Cycles: 2, Amplitude: 0.9},
		}},
		{"mmpp", scenario.Workload{
			Pattern: "mmpp", Tasks: tasks,
			MMPP: &workload.MMPPConfig{Rates: []float64{1, 6}, MeanHold: []float64{300, 100}},
		}},
	}
	var cells []scenario.Cell
	for _, m := range models {
		for _, tv := range toggleVariants {
			wl := m.wl
			cells = append(cells, h.cell(m.label, tv.label, point{
				heuristic: "MM",
				prune:     prune7(tv.mode, true),
				numTasks:  tasks,
				arrival:   &wl,
			}))
		}
	}
	rows, err := h.robustnessRows(cells)
	if err != nil {
		return nil, err
	}
	fr.Rows = rows
	return fr, nil
}

// churnEvents is the platform-event schedule of the churn driver, spread
// over the paper's 3000-unit span: an outage with a late rejoin, a
// degradation window, a scheduled maintenance window and an arrival surge —
// every event class the simulator supports. Times are unscaled; run.scale
// compresses them with the span.
func churnEvents() []scenario.EventSpec {
	m2, m5, m7 := 2, 5, 7
	return []scenario.EventSpec{
		{At: 600, Action: scenario.ActionFail, Machine: &m2},
		{At: 900, Action: scenario.ActionDegrade, Machine: &m5, Factor: 1.8},
		{At: 1000, Until: 1400, Action: scenario.ActionSurge, Factor: 1.5},
		{At: 1500, Action: scenario.ActionJoin, Machine: &m2},
		{At: 1800, Until: 2200, Action: scenario.ActionMaintenance, Machine: &m7},
		{At: 2100, Action: scenario.ActionRestore, Machine: &m5},
	}
}

// churnSensitivity reruns the Figure 7b toggle comparison (MM/MSD, batch
// mode, 15K tasks) on a platform under churn. The paper assumes a static
// machine set; this driver asks whether the reactive Toggle's advantage
// survives failures, slowdowns and load surges, comparing each policy
// against its own static baseline.
func churnSensitivity(h *harness) (*FigureResult, error) {
	fr := &FigureResult{
		Name:        "churn",
		Title:       "Sensitivity: Toggle policies under platform churn (MM/MSD, 15K)",
		Expectation: "churn lowers absolute robustness but preserves the toggle ordering; pruned variants degrade more gracefully than unpruned",
	}
	var cells []scenario.Cell
	for _, platform := range []struct {
		label  string
		events []scenario.EventSpec
	}{
		{"static", nil},
		{"churn", churnEvents()},
	} {
		for _, tv := range toggleVariants {
			for _, heur := range []string{"MM", "MSD"} {
				cells = append(cells, h.cell(heur+"/"+platform.label, tv.label, point{
					heuristic: heur,
					prune:     prune7(tv.mode, true),
					pattern:   workload.ModelSpiky,
					numTasks:  15000,
					events:    platform.events,
				}))
			}
		}
	}
	rows, err := h.robustnessRows(cells)
	if err != nil {
		return nil, err
	}
	fr.Rows = rows
	return fr, nil
}

// extensionValueAware evaluates the cost/priority-aware pruning extension
// (paper Section VII future work, DESIGN.md A4): tasks carry values drawn
// from [1, 5]; value-aware pruning scales each task's pruning threshold by
// 1/value and is scored on value-weighted robustness.
func extensionValueAware(h *harness) (*FigureResult, error) {
	fr := &FigureResult{
		Name:        "a4",
		Title:       "Extension: value-aware pruning (spiky, MM, task values in [1,5])",
		Expectation: "value-aware pruning lifts value-weighted robustness over value-blind pruning; plain robustness stays comparable",
	}
	var cells []scenario.Cell
	for _, n := range []int{20000, 25000} {
		for _, variant := range []string{"MM", "MM-P", "MM-PV"} {
			prune := core.Disabled(12)
			switch variant {
			case "MM-P":
				prune = core.DefaultConfig(12)
			case "MM-PV":
				prune = core.DefaultConfig(12)
				prune.ValueAware = true
				prune.ValueRef = 3 // mean of the [1, 5] value draw
			}
			cells = append(cells, h.cell(variant, kLabel(n), point{
				heuristic: "MM",
				prune:     prune,
				pattern:   workload.ModelSpiky,
				numTasks:  n,
				valued:    true,
			}))
		}
	}
	res, err := h.sweep(cells)
	if err != nil {
		return nil, err
	}
	for _, cr := range res {
		fr.Rows = append(fr.Rows, Row{
			Series:     cr.Series,
			X:          cr.X,
			Robustness: cr.Outcome.Robustness,
			Extra:      map[string]stats.Summary{"weighted_robustness_pct": cr.Outcome.WeightedRobustness},
		})
	}
	return fr, nil
}
