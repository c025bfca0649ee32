// Benchmarks that regenerate every figure of the paper's evaluation
// (DESIGN.md experiment index E1-E9 plus ablations A1-A3). Each figure
// benchmark executes its full configuration sweep at a reduced scale
// (Scale=0.1, 2 trials per point) so `go test -bench=.` stays tractable;
// `cmd/experiments` runs the paper-scale versions (Scale=1, 30 trials).
//
// The reported robustness means of the headline series are attached as
// custom benchmark metrics, so a bench run doubles as a smoke check of the
// figures' shapes.
package prunesim_test

import (
	"testing"

	"prunesim"
)

// benchOpt is the reduced-scale configuration used by figure benchmarks.
func benchOpt() prunesim.FigureOptions {
	return prunesim.FigureOptions{Trials: 2, Scale: 0.1, Seed: 0xbe7c, Parallelism: 4}
}

// runFigure executes one figure sweep per iteration and reports the mean
// robustness across rows as a metric.
func runFigure(b *testing.B, name string) {
	b.Helper()
	var fr *prunesim.FigureResult
	var err error
	for i := 0; i < b.N; i++ {
		fr, err = prunesim.RunFigure(name, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(fr.Rows) > 0 {
		var sum float64
		for _, r := range fr.Rows {
			sum += r.Robustness.Mean
		}
		b.ReportMetric(sum/float64(len(fr.Rows)), "mean_robustness_%")
	}
}

// BenchmarkFig2Convolution regenerates the paper's Figure-2 worked example:
// one PET x PCT convolution plus the chance-of-success read-off (E9).
func BenchmarkFig2Convolution(b *testing.B) {
	pet := prunesim.NewPMF(1, 1, []float64{0.75, 0.125, 0.125}, 0)
	pct := prunesim.NewPMF(4, 1, []float64{0.5, 0.33, 0.17}, 0)
	var chance float64
	for i := 0; i < b.N; i++ {
		chance = pet.Convolve(pct).ProbLE(7)
	}
	b.ReportMetric(100*chance, "chance_%")
}

// BenchmarkFig6SpikyWorkload generates the spiky arrival pattern (E1).
func BenchmarkFig6SpikyWorkload(b *testing.B) {
	matrix := prunesim.StandardPET()
	cfg := prunesim.DefaultWorkload(15000)
	var n int
	for i := 0; i < b.N; i++ {
		cfg.Trial = i
		tasks, err := prunesim.GenerateWorkload(matrix, cfg)
		if err != nil {
			b.Fatal(err)
		}
		n = len(tasks)
	}
	b.ReportMetric(float64(n), "tasks")
}

// BenchmarkFigureSweep is the CI bench-regression gate's end-to-end
// benchmark: one full RunFigure sweep (figure 7b — batch-mode heuristics
// against the three dropping policies) per iteration. It exercises the
// entire hot path — workload generation, mapping events, PMF convolution,
// PCT maintenance, pruning — and its ns/op trajectory across PRs is the
// repo's headline perf metric (see BENCH_baseline.json).
func BenchmarkFigureSweep(b *testing.B) { runFigure(b, "7b") }

// BenchmarkFig7aImmediateToggle sweeps immediate-mode heuristics against
// the three dropping policies (E2).
func BenchmarkFig7aImmediateToggle(b *testing.B) { runFigure(b, "7a") }

// BenchmarkFig7bBatchToggle sweeps batch-mode heuristics against the three
// dropping policies (E3).
func BenchmarkFig7bBatchToggle(b *testing.B) { runFigure(b, "7b") }

// BenchmarkFig8DeferThreshold sweeps the deferring threshold at 25K (E4).
func BenchmarkFig8DeferThreshold(b *testing.B) { runFigure(b, "8") }

// BenchmarkFig9aConstantBatch compares pruned vs unpruned batch heuristics
// under constant arrivals across oversubscription levels (E5).
func BenchmarkFig9aConstantBatch(b *testing.B) { runFigure(b, "9a") }

// BenchmarkFig9bSpikyBatch is E6: the spiky-arrival variant of Figure 9.
func BenchmarkFig9bSpikyBatch(b *testing.B) { runFigure(b, "9b") }

// BenchmarkFig10aConstantHomog compares pruned vs unpruned homogeneous
// heuristics under constant arrivals (E7).
func BenchmarkFig10aConstantHomog(b *testing.B) { runFigure(b, "10a") }

// BenchmarkFig10bSpikyHomog is E8: the spiky-arrival variant of Figure 10.
func BenchmarkFig10bSpikyHomog(b *testing.B) { runFigure(b, "10b") }

// BenchmarkAblationFairness sweeps the fairness factor c (A1).
func BenchmarkAblationFairness(b *testing.B) { runFigure(b, "a1") }

// BenchmarkAblationQueueSlots sweeps machine-queue capacity (A2).
func BenchmarkAblationQueueSlots(b *testing.B) { runFigure(b, "a2") }

// BenchmarkExtEnergyCost measures wasted work/energy with vs without
// pruning (A3, the paper's Section-VII analysis).
func BenchmarkExtEnergyCost(b *testing.B) { runFigure(b, "a3") }

// BenchmarkSimulationMM15K times one full 15K-task batch-mode simulation
// with the pruning mechanism attached — the simulator's core hot path.
func BenchmarkSimulationMM15K(b *testing.B) {
	matrix := prunesim.StandardPET()
	platform, err := prunesim.NewPlatform(prunesim.PlatformConfig{
		Matrix:          matrix,
		Heuristic:       "MM",
		Pruning:         prunesim.DefaultPruning(matrix.NumTaskTypes()),
		Seed:            1,
		ExcludeBoundary: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	wcfg := prunesim.DefaultWorkload(15000)
	b.ResetTimer()
	var rob float64
	for i := 0; i < b.N; i++ {
		res, err := platform.RunTrial(wcfg, i)
		if err != nil {
			b.Fatal(err)
		}
		rob = res.Robustness
	}
	b.ReportMetric(rob, "robustness_%")
}

// BenchmarkSimulationImmediateKPB15K times the immediate-mode hot path.
func BenchmarkSimulationImmediateKPB15K(b *testing.B) {
	matrix := prunesim.StandardPET()
	pruning := prunesim.DefaultPruning(matrix.NumTaskTypes())
	pruning.DeferEnabled = false
	platform, err := prunesim.NewPlatform(prunesim.PlatformConfig{
		Matrix:          matrix,
		Mode:            prunesim.ImmediateAllocation,
		Heuristic:       "KPB",
		Pruning:         pruning,
		Seed:            1,
		ExcludeBoundary: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	wcfg := prunesim.DefaultWorkload(15000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platform.RunTrial(wcfg, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtValueAwarePruning evaluates the cost/priority-aware pruning
// extension (A4, the paper's other Section-VII future-work item).
func BenchmarkExtValueAwarePruning(b *testing.B) { runFigure(b, "a4") }

// mm1MTasks sizes the million-task benchmarks.
const mm1MTasks = 1_000_000

// mm1MWorkload is the million-task workload: the paper's spiky shape with
// the time span (and spike count) scaled from the 15K benchmark so the
// oversubscription level — and with it the in-flight task window — stays
// constant while the task count grows 66x. Runtime and streaming memory
// then scale linearly, which is exactly what the bytes/op gate measures.
func mm1MWorkload() prunesim.WorkloadConfig {
	cfg := prunesim.DefaultWorkload(mm1MTasks)
	scale := float64(mm1MTasks) / 15000
	cfg.TimeSpan *= scale
	cfg.NumSpikes = int(float64(cfg.NumSpikes) * scale)
	return cfg
}

// mm1MPlatform is the platform under the million-task benchmarks: the 15K
// benchmark's batch-MM configuration.
func mm1MPlatform(b *testing.B) *prunesim.Platform {
	b.Helper()
	matrix := prunesim.StandardPET()
	platform, err := prunesim.NewPlatform(prunesim.PlatformConfig{
		Matrix:          matrix,
		Heuristic:       "MM",
		Pruning:         prunesim.DefaultPruning(matrix.NumTaskTypes()),
		Seed:            1,
		ExcludeBoundary: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	return platform
}

// BenchmarkSimulationMM1M runs one full million-task batch-MM trial per
// iteration over the streaming path: workload generation, simulation and
// statistics with memory bounded by the in-flight window. Its bytes/op is
// the CI memory gate for million-task trials (run with -benchmem; see
// scripts/bench_snapshot.sh) — the materialized variant below is the
// reference it must stay far under.
func BenchmarkSimulationMM1M(b *testing.B) {
	platform := mm1MPlatform(b)
	wcfg := mm1MWorkload()
	b.ResetTimer()
	var rob float64
	for i := 0; i < b.N; i++ {
		res, err := platform.RunTrial(wcfg, i)
		if err != nil {
			b.Fatal(err)
		}
		rob = res.Robustness
	}
	b.ReportMetric(rob, "robustness_%")
}

// BenchmarkSimulationMM1MMaterialized is the same trial over a
// materialized workload (GenerateWorkload, then Run over the whole task
// slice, no struct recycled) — the picture the streaming bytes/op win is
// measured against. Not part of the CI gate's baseline comparisons; it
// exists so `benchdiff` can show the ratio on demand.
func BenchmarkSimulationMM1MMaterialized(b *testing.B) {
	platform := mm1MPlatform(b)
	wcfg := mm1MWorkload()
	b.ResetTimer()
	var rob float64
	for i := 0; i < b.N; i++ {
		wcfg.Trial = i
		tasks, err := prunesim.GenerateWorkload(platform.Config().Matrix, wcfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := platform.Run(tasks)
		if err != nil {
			b.Fatal(err)
		}
		rob = res.Robustness
	}
	b.ReportMetric(rob, "robustness_%")
}
