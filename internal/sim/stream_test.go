package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"prunesim/internal/core"
	"prunesim/internal/sched"
	"prunesim/internal/task"
	"prunesim/internal/workload"
)

// requireSameResult compares two Results field-for-field (bitwise on
// floats — the equivalence the streaming path promises).
func requireSameResult(t *testing.T, materialized, streamed *Result) {
	t.Helper()
	if !reflect.DeepEqual(materialized, streamed) {
		t.Fatalf("Run vs RunStream diverge:\nmaterialized: %+v\nstreamed:     %+v", materialized, streamed)
	}
}

// streamWorkloadCfg is the common workload shape for the equivalence tests.
func streamWorkloadCfg(n, trial int) workload.Config {
	cfg := workload.DefaultConfig(n)
	cfg.TimeSpan = 400
	cfg.NumSpikes = 2
	cfg.Trial = trial
	return cfg
}

// runBoth executes the identical trial on both paths — the runMaterialized
// oracle over a fresh materialized workload, RunStream over a fresh
// arena-backed Source — with
// observers capturing the full trace, and returns both results + traces.
// mkCfg must return a fresh Config per call: heuristics can be stateful
// (RR's rotation cursor), so the two paths cannot share one instance.
func runBoth(t *testing.T, wcfg workload.Config, mkCfg func() Config) (*Result, *Result, []TraceEvent, []TraceEvent) {
	t.Helper()
	var matTrace, strTrace []TraceEvent
	matCfg := mkCfg()
	matCfg.Observer = func(e TraceEvent) { matTrace = append(matTrace, e) }
	tasks, err := workload.Generate(hcMatrix, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	matRes, err := runMaterialized(hcMatrix, tasks, matCfg)
	if err != nil {
		t.Fatal(err)
	}
	strCfg := mkCfg()
	strCfg.Observer = func(e TraceEvent) { strTrace = append(strTrace, e) }
	src, err := workload.NewSource(hcMatrix, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	strRes, err := RunStream(hcMatrix, src, strCfg)
	if err != nil {
		t.Fatal(err)
	}
	if live := src.Live(); live != 0 {
		t.Fatalf("source still holds %d live tasks after RunStream", live)
	}
	return matRes, strRes, matTrace, strTrace
}

// TestStreamMatchesRunProperty: across random heuristics, modes and pruning
// configurations, RunStream over a streaming Source produces a Result and
// trace bitwise-identical to Run over the materialized workload.
func TestStreamMatchesRunProperty(t *testing.T) {
	f := func(rr randomRun) bool {
		if rr.heuristic == "FCFS-RR" || rr.heuristic == "EDF" || rr.heuristic == "SJF" {
			// These need the homogeneous matrix; runBoth is wired to the HC
			// fixture and the remaining heuristics cover both modes.
			return true
		}
		if _, _, err := sched.ByName(rr.heuristic); err != nil {
			return false
		}
		mode := BatchMode
		if rr.immediate {
			mode = ImmediateMode
		}
		mkCfg := func() Config {
			h, _, _ := sched.ByName(rr.heuristic)
			return Config{
				Mode: mode, Heuristic: h, MachineTypes: hcMachines,
				Slots: rr.slots, Prune: rr.prune, Seed: uint64(rr.trial) + 1,
				ExcludeBoundary: 20,
			}
		}
		matRes, strRes, matTrace, strTrace := runBoth(t, streamWorkloadCfg(rr.numTasks, rr.trial), mkCfg)
		if !reflect.DeepEqual(matRes, strRes) {
			t.Logf("%s: results diverge:\n%+v\n%+v", rr.heuristic, matRes, strRes)
			return false
		}
		if !reflect.DeepEqual(matTrace, strTrace) {
			t.Logf("%s: traces diverge (%d vs %d events)", rr.heuristic, len(matTrace), len(strTrace))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamMatchesRunWithValues: value-aware pruning sums task values in ID
// order; the streaming tally must reproduce the float accumulation exactly.
func TestStreamMatchesRunWithValues(t *testing.T) {
	wcfg := streamWorkloadCfg(1500, 2)
	wcfg.ValueLo, wcfg.ValueHi = 0.5, 4
	prune := core.DefaultConfig(12)
	prune.ValueAware = true
	prune.ValueRef = 2
	mkCfg := func() Config {
		return Config{
			Mode: BatchMode, Heuristic: sched.NewMM(), MachineTypes: hcMachines,
			Slots: 2, Prune: prune, Seed: 11, ExcludeBoundary: 50,
		}
	}
	matRes, strRes, _, _ := runBoth(t, wcfg, mkCfg)
	requireSameResult(t, matRes, strRes)
	if matRes.ValueTotal == float64(matRes.Counted) {
		t.Fatal("workload values did not vary; test exercises nothing")
	}
}

// TestStreamMatchesRunWithPlatformEvents: failures, joins, degradations and
// restores interleave with streamed arrivals exactly as with materialized
// ones, including equal-time tie-breaks (platform before arrival).
func TestStreamMatchesRunWithPlatformEvents(t *testing.T) {
	for _, mode := range []struct {
		name  string
		mkCfg func() Config
	}{
		{"batch-MM", func() Config { return batchCfg(sched.NewMM(), core.DefaultConfig(12)) }},
		{"immediate-MCT", func() Config { return immCfg(sched.NewMCT(), core.DefaultConfig(12)) }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			mkCfg := func() Config {
				cfg := mode.mkCfg()
				cfg.Events = churnSchedule()
				return cfg
			}
			matRes, strRes, matTrace, strTrace := runBoth(t, streamWorkloadCfg(2500, 5), mkCfg)
			requireSameResult(t, matRes, strRes)
			if !reflect.DeepEqual(matTrace, strTrace) {
				t.Fatalf("traces diverge: %d vs %d events", len(matTrace), len(strTrace))
			}
			if matRes.PlatformEvents != len(churnSchedule()) {
				t.Fatalf("executed %d platform events, want %d", matRes.PlatformEvents, len(churnSchedule()))
			}
		})
	}
}

// TestStreamMatchesRunWithTailEps: PCT tail compression changes pruning
// decisions, but both paths must change identically.
func TestStreamMatchesRunWithTailEps(t *testing.T) {
	mkCfg := func() Config {
		cfg := batchCfg(sched.NewMM(), core.DefaultConfig(12))
		cfg.TailEps = 0.01
		return cfg
	}
	matRes, strRes, _, _ := runBoth(t, streamWorkloadCfg(1200, 4), mkCfg)
	requireSameResult(t, matRes, strRes)
}

// TestStreamMemoryBounded: the arena's live count during the run stays far
// below the workload size — the tentpole claim, observed from inside the
// trial via the trace callback.
func TestStreamMemoryBounded(t *testing.T) {
	const n = 6000
	src, err := workload.NewSource(hcMatrix, streamWorkloadCfg(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	maxLive := 0
	cfg := immCfg(sched.NewMCT(), core.DefaultConfig(12))
	cfg.ExcludeBoundary = 20
	cfg.Observer = func(TraceEvent) {
		if l := src.Live(); l > maxLive {
			maxLive = l
		}
	}
	res, err := RunStream(hcMatrix, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The generator can overshoot the requested count slightly (independent
	// per-type Poisson draws); bound against what actually arrived.
	if res.TotalTasks < n {
		t.Fatalf("TotalTasks = %d, want >= %d", res.TotalTasks, n)
	}
	if maxLive == 0 || maxLive > res.TotalTasks/4 {
		t.Fatalf("peak live tasks %d out of expected bounds (0, %d]", maxLive, res.TotalTasks/4)
	}
	if src.Live() != 0 {
		t.Fatalf("%d tasks still live after the run", src.Live())
	}
}

// TestStreamAutoExcludeBoundary: small workloads clamp the boundary to
// total/4 on both paths; without the flag both paths reject identically.
func TestStreamAutoExcludeBoundary(t *testing.T) {
	mkTasks := func() []*task.Task {
		ts := make([]*task.Task, 10)
		for i := range ts {
			ts[i] = task.New(i, i%3, float64(i), float64(i)+30)
		}
		return ts
	}
	cfg := immCfg(sched.NewMCT(), core.Disabled(12))
	cfg.ExcludeBoundary = 20
	cfg.AutoExcludeBoundary = true
	matRes, err := runMaterialized(hcMatrix, mkTasks(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	strRes, err := RunStream(hcMatrix, &sliceSource{tasks: mkTasks()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, matRes, strRes)
	// lo clamps to 10/4 = 2 → counted window [2, 8).
	if matRes.Counted != 6 {
		t.Fatalf("Counted = %d, want 6 under the clamped boundary", matRes.Counted)
	}

	cfg.AutoExcludeBoundary = false
	if _, err := Run(hcMatrix, mkTasks(), cfg); err == nil {
		t.Fatal("Run accepted an out-of-range boundary")
	}
	_, err = RunStream(hcMatrix, &sliceSource{tasks: mkTasks()}, cfg)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("RunStream boundary error = %v", err)
	}
}

// TestStreamErrNoTasks: an empty source fails with ErrNoTasks, matching
// Run's rejection of an empty slice.
func TestStreamErrNoTasks(t *testing.T) {
	cfg := immCfg(sched.NewMCT(), core.Disabled(12))
	cfg.ExcludeBoundary = 0
	cfg.AutoExcludeBoundary = true
	_, err := RunStream(hcMatrix, &sliceSource{}, cfg)
	if !errors.Is(err, ErrNoTasks) {
		t.Fatalf("err = %v, want ErrNoTasks", err)
	}
}

// TestStreamSourceContract: non-sequential IDs and time-travelling arrivals
// are simulator bugs waiting to happen; RunStream rejects both up front.
func TestStreamSourceContract(t *testing.T) {
	cfg := immCfg(sched.NewMCT(), core.Disabled(12))
	cfg.ExcludeBoundary = 0
	cfg.AutoExcludeBoundary = true

	badID := &sliceSource{tasks: []*task.Task{task.New(1, 0, 0, 50)}}
	if _, err := RunStream(hcMatrix, badID, cfg); err == nil || !strings.Contains(err.Error(), "sequential") {
		t.Fatalf("non-sequential ID error = %v", err)
	}

	backwards := &sliceSource{tasks: []*task.Task{
		task.New(0, 0, 10, 60), task.New(1, 0, 5, 55),
	}}
	if _, err := RunStream(hcMatrix, backwards, cfg); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("out-of-order arrival error = %v", err)
	}

	if _, err := RunStream(hcMatrix, nil, cfg); err == nil {
		t.Fatal("nil source accepted")
	}
}

// TestRunSliceContract: Run checks its slice before running anything — IDs
// 0..n-1 in slice order, non-decreasing arrivals, no nil entries — and a
// valid slice keeps its structs (final statuses) after the run.
func TestRunSliceContract(t *testing.T) {
	cfg := immCfg(sched.NewMCT(), core.Disabled(12))
	cfg.ExcludeBoundary = 0
	for _, c := range []struct {
		name  string
		tasks []*task.Task
		want  string
	}{
		{"foreign IDs", []*task.Task{task.New(5, 0, 1, 100), task.New(6, 1, 2, 100), task.New(7, 2, 3, 100)}, "IDs must be 0..n-1"},
		{"out of order", []*task.Task{task.New(0, 0, 10, 100), task.New(1, 1, 5, 100)}, "arrivals must not decrease"},
		{"nil task", []*task.Task{task.New(0, 0, 1, 100), nil}, "nil"},
	} {
		_, err := Run(hcMatrix, c.tasks, cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
		if c.tasks[0].Status != task.StatusUnarrived {
			t.Errorf("%s: rejected slice was simulated (task 0 is %v)", c.name, c.tasks[0].Status)
		}
	}

	tasks := smallWorkload(300, 1)
	if _, err := Run(hcMatrix, tasks, cfg); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tasks {
		if !tk.Status.Terminal() {
			t.Fatalf("task %d ended %v, want a terminal status", tk.ID, tk.Status)
		}
	}
}

// TestStreamTailEpsValidation: both entry points reject malformed TailEps.
func TestStreamTailEpsValidation(t *testing.T) {
	for _, eps := range []float64{-0.5, 1, 2} {
		cfg := immCfg(sched.NewMCT(), core.Disabled(12))
		cfg.TailEps = eps
		if _, err := Run(hcMatrix, smallWorkload(100, 0), cfg); err == nil {
			t.Fatalf("Run accepted TailEps %v", eps)
		}
		if _, err := RunStream(hcMatrix, &sliceSource{tasks: smallWorkload(100, 0)}, cfg); err == nil {
			t.Fatalf("RunStream accepted TailEps %v", eps)
		}
	}
}

// TestStreamDeterministic: repeated RunStream trials over fresh sources are
// identical — the arena and heap introduce no order dependence.
func TestStreamDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	trial := r.Intn(4)
	run := func() *Result {
		src, err := workload.NewSource(hcMatrix, streamWorkloadCfg(1000, trial))
		if err != nil {
			t.Fatal(err)
		}
		cfg := batchCfg(sched.NewMM(), core.DefaultConfig(12))
		res, err := RunStream(hcMatrix, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	requireSameResult(t, run(), run())
}

// TestOutcomeRing records outcomes out of order and folds whatever is in
// order after each record: first within a window that wraps the initial
// 64-slot buffer several times, then within one that forces it to grow
// while the fold cursor sits mid-buffer.
func TestOutcomeRing(t *testing.T) {
	var r outcomeRing
	if _, ok := r.pop(); ok {
		t.Fatal("zero ring popped an outcome")
	}
	rng := rand.New(rand.NewSource(1))
	next, base := 0, 0
	for _, window := range []int{40, 300} {
		for range 10 {
			for _, k := range rng.Perm(window) {
				id := base + k
				r.put(id-next, outcome{typ: id, value: float64(id) / 2})
				for {
					o, ok := r.pop()
					if !ok {
						break
					}
					if o.typ != next || o.value != float64(next)/2 {
						t.Fatalf("folded outcome of task %d (value %v), want task %d", o.typ, o.value, next)
					}
					next++
				}
			}
			base += window
			if next != base {
				t.Fatalf("window of %d: folded up to %d, want %d", window, next, base)
			}
		}
	}
	if n := len(r.buf); n < 300 || n&(n-1) != 0 {
		t.Fatalf("ring buffer length %d, want a power of two >= 300", n)
	}
}
