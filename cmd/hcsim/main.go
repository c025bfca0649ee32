// Command hcsim runs simulations of the heterogeneous serverless platform
// and prints the outcome breakdown — the quickest way to poke at one
// configuration.
//
// The preferred front end is a declarative scenario file (see
// examples/scenarios/ and DESIGN.md for the schema):
//
//	hcsim --scenario examples/scenarios/paper_fig9b_mm_pruned.json
//	hcsim --scenario examples/scenarios/bursty_arrivals.json --trials 5 --scale 0.2
//	hcsim --scenario examples/scenarios/mixed_sla_classes.json --out outcome.json
//	hcsim --scenario examples/scenarios/service_smoke.json --out - | jq .robustness
//
// Individual flags assemble a single ad-hoc trial instead:
//
//	hcsim -heuristic MM -tasks 15000 -prune
//	hcsim -heuristic KPB -mode immediate -tasks 20000 -prune -toggle always
//	hcsim -heuristic EDF -homogeneous -tasks 25000 -pattern constant
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"prunesim"
	"prunesim/internal/cli"
	"prunesim/internal/core"
	"prunesim/internal/timeline"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "run a declarative scenario file (JSON; see examples/scenarios/)")
		trials       = flag.Int("trials", 0, "override the scenario's trial count")
		parallelism  = flag.Int("parallelism", 0, "override the scenario's max concurrent trials")
		scale        = flag.Float64("scale", 0, "override the scenario's workload scale factor")
		pace         = flag.Float64("pace", 0, "run trials sequentially against a real clock this many times faster than simulated time (0 = as fast as possible)")
		outPath      = flag.String("out", "", "write the full outcome (scenario + per-trial results) as JSON")

		heuristic   = flag.String("heuristic", "MM", "mapping heuristic (RR, MET, MCT, KPB, OLB, MM, MSD, MMU, MaxMin, Sufferage, FCFS-RR, EDF, SJF)")
		mode        = flag.String("mode", "batch", "allocation mode: batch or immediate")
		tasks       = flag.Int("tasks", 15000, "total tasks (oversubscription level)")
		pattern     = flag.String("pattern", "spiky", "arrival model: spiky, constant, poisson, diurnal or mmpp")
		homogeneous = flag.Bool("homogeneous", false, "use the homogeneous system (8 identical machines)")
		prune       = flag.Bool("prune", false, "attach the pruning mechanism")
		threshold   = flag.Float64("threshold", 0.5, "pruning threshold (chance of success)")
		fairness    = flag.Float64("fairness", 0.05, "fairness factor c")
		toggle      = flag.String("toggle", "reactive", "dropping toggle: never, always, reactive")
		noDefer     = flag.Bool("nodefer", false, "disable the deferring operation")
		slots       = flag.Int("slots", 2, "pending queue slots per machine (batch mode)")
		trial       = flag.Int("trial", 0, "workload trial number")
		seed        = flag.Uint64("seed", 1, "random seed (scenario mode: workload seed; ad-hoc mode: execution sampling seed)")
		energyFlag  = flag.Bool("energy", false, "print the energy/cost report")
		calibrate   = flag.Bool("calibration", false, "print the chance-of-success reliability table")
	)
	flag.Parse()

	if *scenarioPath != "" {
		runScenario(*scenarioPath, overrides{
			trials:      *trials,
			parallelism: *parallelism,
			scale:       *scale,
			seed:        *seed,
			pace:        *pace,
			out:         *outPath,
			energy:      *energyFlag,
		})
		return
	}
	for _, name := range []string{"trials", "parallelism", "scale", "pace", "out"} {
		if cli.FlagGiven(name) {
			fatal(fmt.Errorf("-%s applies only with -scenario", name))
		}
	}

	matrix := prunesim.StandardPET()
	machines := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if *homogeneous {
		matrix = prunesim.HomogeneousPET()
		machines = make([]int, 8)
	}
	pruning := prunesim.NoPruning(matrix.NumTaskTypes())
	if *prune {
		pruning = prunesim.DefaultPruning(matrix.NumTaskTypes())
		pruning.Threshold = *threshold
		pruning.FairnessFactor = *fairness
		pruning.DeferEnabled = !*noDefer
		mode, err := core.ParseToggleMode(*toggle)
		if err != nil {
			fatal(err)
		}
		pruning.DropMode = mode
	}
	allocMode := prunesim.BatchAllocation
	if *mode == "immediate" {
		allocMode = prunesim.ImmediateAllocation
	} else if *mode != "batch" {
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	platform, err := prunesim.NewPlatform(prunesim.PlatformConfig{
		Matrix:          matrix,
		MachineTypes:    machines,
		Mode:            allocMode,
		Heuristic:       *heuristic,
		QueueSlots:      *slots,
		Pruning:         pruning,
		Seed:            *seed,
		ExcludeBoundary: 100,
	})
	if err != nil {
		fatal(err)
	}
	wcfg := prunesim.DefaultWorkload(*tasks)
	// Any arrival-model name works here; diurnal and mmpp run with their
	// default shapes (scenario files configure custom curves).
	wcfg.Model = *pattern
	if *calibrate {
		wcfg.Trial = *trial
		tasks, err := prunesim.GenerateWorkload(matrix, wcfg)
		if err != nil {
			fatal(err)
		}
		rep, err := platform.AssessCalibration(tasks, 10)
		if err != nil {
			fatal(err)
		}
		fmt.Println(rep)
		return
	}
	res, err := platform.RunTrial(wcfg, *trial)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("heuristic=%s mode=%s pattern=%s tasks=%d pruning=%v\n",
		*heuristic, *mode, *pattern, *tasks, *prune)
	printResult(res)
	if *energyFlag {
		printEnergy(res, len(machines))
	}
}

// overrides carries the scenario-mode flag overrides; each applies only
// when its flag was given explicitly on the command line.
type overrides struct {
	trials      int
	parallelism int
	scale       float64
	seed        uint64
	pace        float64
	out         string
	energy      bool
}

// runScenario loads and executes a scenario file and prints its summary.
func runScenario(path string, o overrides) {
	sc, err := prunesim.LoadScenario(path)
	if err != nil {
		fatal(err)
	}
	// Explicit overrides pass through even when invalid (negative trials,
	// zero scale), so normalization rejects them loudly instead of
	// silently keeping the file's setting.
	if cli.FlagGiven("trials") {
		sc.Run.Trials = o.trials
	}
	if cli.FlagGiven("parallelism") {
		sc.Run.Parallelism = o.parallelism
	}
	if cli.FlagGiven("scale") {
		sc.Run.Scale = o.scale
	}
	if cli.FlagGiven("seed") {
		sc.Run.Seed = o.seed
	}
	// The live view: every finished trial folds into a streaming timeline
	// (the same aggregator prunesimd serves at /v1/jobs/{id}/timeline) and
	// refreshes a progress line on stderr — in-place on a TTY, milestone
	// lines otherwise.
	tl := timeline.New(sc.Run.Trials)
	progress := newProgressPrinter(os.Stderr, sc.Run.Trials)
	start := time.Now()
	onTrial := func(p prunesim.ScenarioTrialProgress) {
		tl.Observe(timeline.Observation{
			Trial:      p.Trial,
			At:         time.Since(start).Seconds(),
			Duration:   p.DurationSeconds,
			Robustness: p.Robustness,
			Counts:     p.Counts,
		})
		progress.update(p, tl)
	}
	study := prunesim.NewStudy(sc).OnTrial(onTrial)
	if o.pace != 0 {
		// Paced mode plays the scenario against the wall clock (o.pace
		// simulated time units per second of ×1 speedup) — live demos of
		// machine churn rather than batch throughput.
		study = study.Paced(o.pace)
	}
	outcome, err := study.Run()
	progress.finish()
	if err != nil {
		fatal(err)
	}
	sc = outcome.Scenario // normalized: defaults filled in
	fmt.Printf("scenario: %s\n", sc.Name)
	if sc.Description != "" {
		fmt.Printf("  %s\n", sc.Description)
	}
	fmt.Printf("platform: profile=%s machines=%d heuristic=%s pattern=%s tasks=%d prune=%v\n",
		sc.Platform.Profile, sc.Platform.Machines, sc.Platform.Heuristic,
		sc.Workload.Pattern, sc.Workload.Tasks, sc.Prune.Enabled)
	fmt.Printf("run:      trials=%d scale=%g seed=%#x\n", sc.Run.Trials, sc.Run.Scale, sc.Run.Seed)
	fmt.Printf("robustness:          %6.2f%% ± %.2f (95%% CI over %d trials)\n",
		outcome.Robustness.Mean, outcome.Robustness.CI95, outcome.Robustness.N)
	if sc.Workload.ValueHi > 0 {
		fmt.Printf("weighted robustness: %6.2f%% ± %.2f\n",
			outcome.WeightedRobustness.Mean, outcome.WeightedRobustness.CI95)
	}
	// Mean per-trial outcome breakdown.
	var onTime, late, dropR, dropP, unfinished, deferrals float64
	for _, r := range outcome.Results {
		onTime += float64(r.OnTime)
		late += float64(r.Late)
		dropR += float64(r.DroppedReactive)
		dropP += float64(r.DroppedProactive)
		unfinished += float64(r.Unfinished)
		deferrals += float64(r.Deferrals)
	}
	n := float64(len(outcome.Results))
	fmt.Printf("mean per trial:      on-time %.0f, late %.0f, dropped reactive %.0f, dropped proactive %.0f, unfinished %.0f, deferrals %.0f\n",
		onTime/n, late/n, dropR/n, dropP/n, unfinished/n, deferrals/n)
	printTimeline(tl.Snapshot())
	if o.energy {
		printEnergy(outcome.Results[0], sc.Platform.Machines)
	}
	if o.out != "" {
		// "-" streams to stdout; parent directories are created on demand.
		// The report wraps the outcome with the run's final timeline
		// snapshot (the outcome's own fields are unchanged).
		report := struct {
			*prunesim.ScenarioOutcome
			Timeline *timeline.Snapshot `json:"timeline"`
		}{outcome, tl.Snapshot()}
		if err := cli.WriteJSON(o.out, report); err != nil {
			fatal(err)
		}
		if o.out != "-" {
			fmt.Printf("wrote %s\n", o.out)
		}
	}
}

// progressPrinter renders live per-trial progress on w: a single
// carriage-return-rewritten line when w is a terminal, sparse milestone
// lines (~10 per run) otherwise — so piped and CI output stays readable.
type progressPrinter struct {
	w     *os.File
	tty   bool
	total int
	every int
	wrote bool
}

func newProgressPrinter(w *os.File, total int) *progressPrinter {
	every := total / 10
	if every < 1 {
		every = 1
	}
	fi, err := w.Stat()
	tty := err == nil && fi.Mode()&os.ModeCharDevice != 0
	return &progressPrinter{w: w, tty: tty, total: total, every: every}
}

// update reports one finished trial against the timeline so far.
func (pp *progressPrinter) update(p prunesim.ScenarioTrialProgress, tl *timeline.Timeline) {
	if !pp.tty && p.Done%pp.every != 0 && p.Done != pp.total {
		return
	}
	s := tl.Snapshot()
	line := fmt.Sprintf("trial %d/%d · robustness %.2f%% (p50 %.2f) · on-time %.1f%% late %.1f%% dropped %.1f%% · %.1f trials/s",
		p.Done, p.Total, s.Robustness.Mean, s.Robustness.P50,
		s.Rates.OnTimePercent, s.Rates.LatePercent,
		s.Rates.DroppedReactivePercent+s.Rates.DroppedProactivePercent,
		s.TrialsPerSec)
	if pp.tty {
		fmt.Fprintf(pp.w, "\r\x1b[K%s", line)
		pp.wrote = true
	} else {
		fmt.Fprintln(pp.w, line)
	}
}

// finish terminates the in-place line so the report starts on a fresh row.
func (pp *progressPrinter) finish() {
	if pp.tty && pp.wrote {
		fmt.Fprintln(pp.w)
	}
}

// printTimeline renders the final timeline section of the console report.
func printTimeline(s *timeline.Snapshot) {
	if s.TrialsDone == 0 {
		return
	}
	fmt.Printf("timeline:            %d trials in %.1fs (%.1f trials/s), %d bins × %gs\n",
		s.TrialsDone, s.ElapsedSeconds, s.TrialsPerSec, len(s.Bins), s.BinWidthSeconds)
	fmt.Printf("  robustness:        p50 %.2f  p90 %.2f  p99 %.2f  (min %.2f, max %.2f)\n",
		s.Robustness.P50, s.Robustness.P90, s.Robustness.P99, s.Robustness.Min, s.Robustness.Max)
	if d := s.TrialDuration; d != nil {
		fmt.Printf("  trial duration:    p50 %s  p90 %s  p99 %s\n",
			fmtSeconds(d.P50), fmtSeconds(d.P90), fmtSeconds(d.P99))
	}
	if len(s.Bins) > 0 {
		fmt.Printf("  %8s %7s %9s %6s %6s %6s %6s %7s\n",
			"t[s]", "trials", "on-time%", "late", "dropR", "dropP", "unfin", "defer")
		for _, b := range s.Bins {
			if b.Trials == 0 {
				continue
			}
			fmt.Printf("  %8.1f %7d %9.1f %6d %6d %6d %6d %7d\n",
				b.StartSeconds, b.Trials, b.OnTimePercent,
				b.Counts.Late, b.Counts.DroppedReactive, b.Counts.DroppedProactive,
				b.Counts.Unfinished, b.Counts.Deferrals)
		}
	}
}

// fmtSeconds renders a duration in seconds with a sensible unit.
func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Millisecond).String()
}

// printResult prints the outcome breakdown of one simulation run.
func printResult(res *prunesim.Result) {
	fmt.Printf("robustness:        %6.2f%% (%d/%d on time)\n", res.Robustness, res.OnTime, res.Counted)
	fmt.Printf("late completions:  %6d\n", res.Late)
	fmt.Printf("dropped reactive:  %6d\n", res.DroppedReactive)
	fmt.Printf("dropped proactive: %6d\n", res.DroppedProactive)
	fmt.Printf("unfinished:        %6d\n", res.Unfinished)
	fmt.Printf("deferrals:         %6d\n", res.Deferrals)
	fmt.Printf("mapping events:    %6d\n", res.MappingEvents)
	fmt.Printf("makespan:          %8.1f time units\n", res.Makespan)
	fmt.Printf("busy time:         %8.1f (wasted on late tasks: %.1f)\n", res.BusyTime, res.WastedTime)
}

// printEnergy prints the energy/cost report of one run.
func printEnergy(res *prunesim.Result, machines int) {
	rep, err := prunesim.AnalyzeEnergy(res, machines, prunesim.DefaultEnergyParams())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("energy:            %8.0f kJ total, %.0f kJ wasted (%.1f%%)\n",
		rep.TotalJoules/1000, rep.WastedJoules/1000, 100*rep.WastedFraction)
	fmt.Printf("cost:              $%7.2f total, $%.2f wasted\n", rep.TotalDollars, rep.WastedDollars)
	fmt.Printf("efficiency:        %8.0f J per on-time task\n", rep.JoulesPerOnTimeTask)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hcsim:", err)
	os.Exit(1)
}
