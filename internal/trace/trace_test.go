package trace

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"prunesim/internal/core"
	"prunesim/internal/pet"
	"prunesim/internal/sched"
	"prunesim/internal/sim"
	"prunesim/internal/task"
	"prunesim/internal/workload"
)

// failAfter is an io.Writer that fails every Write after the first n bytes
// have been accepted.
type failAfter struct {
	limit   int
	written int
}

var errSink = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.limit {
		return 0, errSink
	}
	f.written += len(p)
	return len(p), nil
}

// smallRun simulates a tiny workload with the given observer attached and

// mustGenerate wraps workload.Generate for valid-by-construction configs.
func mustGenerate(t *testing.T, m *pet.Matrix, cfg workload.Config) []*task.Task {
	t.Helper()
	tasks, err := workload.Generate(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

// returns the result plus the generated tasks.
func smallRun(t *testing.T, observer func(sim.TraceEvent)) (*sim.Result, int) {
	t.Helper()
	matrix := pet.Standard(pet.DefaultParams())
	cfg := workload.DefaultConfig(300)
	cfg.TimeSpan = 150
	cfg.NumSpikes = 2
	tasks := mustGenerate(t, matrix, cfg)
	res, err := sim.Run(matrix, tasks, sim.Config{
		Mode: sim.BatchMode, Heuristic: sched.NewMM(),
		MachineTypes: []int{0, 1, 2, 3, 4, 5, 6, 7},
		Prune:        core.DefaultConfig(12), Seed: 9, ExcludeBoundary: 10,
		Observer: observer,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, len(tasks)
}

// TestWriterHeaderWriteFailure: a sink that cannot even take the header
// fails NewWriter immediately.
func TestWriterHeaderWriteFailure(t *testing.T) {
	// csv.Writer buffers through bufio (4096 bytes), so force the flush
	// path by making the underlying writer reject everything: NewWriter
	// itself succeeds, but the first Flush surfaces the error.
	w, err := NewWriter(&failAfter{limit: 0})
	if err != nil {
		// Also acceptable: an implementation that flushes the header
		// eagerly fails here.
		return
	}
	if err := w.Flush(); err == nil {
		t.Fatal("header never reached a failing sink but Flush reported success")
	}
}

// TestWriterErrorPropagation: once the sink fails, the error is latched,
// later Observes become no-ops (the event count freezes) and every
// subsequent Flush keeps reporting the failure.
func TestWriterErrorPropagation(t *testing.T) {
	// Enough room for the header and the first flushes, then fail. The
	// csv.Writer's bufio layer flushes every ~4096 bytes, so a full small
	// run is guaranteed to hit the limit.
	sink := &failAfter{limit: 4096}
	w, err := NewWriter(sink)
	if err != nil {
		t.Fatal(err)
	}
	smallRun(t, w.Observe)
	err = w.Flush()
	if err == nil {
		t.Fatal("Flush succeeded although the sink failed mid-run")
	}
	if !errors.Is(err, errSink) {
		t.Fatalf("Flush error %v does not wrap the sink error", err)
	}
	if !strings.HasPrefix(err.Error(), "trace: ") {
		t.Fatalf("error %q not namespaced", err)
	}
	frozen := w.Events()
	w.Observe(sim.TraceEvent{Kind: sim.TraceArrived})
	if w.Events() != frozen {
		t.Fatal("Observe after a latched error still counted events")
	}
	if err := w.Flush(); !errors.Is(err, errSink) {
		t.Fatalf("second Flush lost the latched error: %v", err)
	}
}

// TestWriterFlushIdempotent: on a healthy sink, Flush can be called
// repeatedly (including with no new rows) and keeps succeeding.
func TestWriterFlushIdempotent(t *testing.T) {
	var sb strings.Builder
	w, err := NewWriter(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	headerOnly := sb.String()
	if !strings.HasPrefix(headerOnly, "time,event,") {
		t.Fatalf("header %q", headerOnly)
	}
	w.Observe(sim.TraceEvent{Time: 1, Kind: sim.TraceArrived, TaskID: 0, TaskType: 0, Machine: -1})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 || w.Events() != 1 {
		t.Fatalf("lines=%d events=%d, want 2/1 (no duplicate rows from repeated Flush)", len(lines), w.Events())
	}
}

// TestWriterRowCounts: against a small simulated run, the CSV holds
// exactly header + Events() rows, and arrivals match the workload size.
func TestWriterRowCounts(t *testing.T) {
	var sb strings.Builder
	w, err := NewWriter(&sb)
	if err != nil {
		t.Fatal(err)
	}
	_, numTasks := smallRun(t, w.Observe)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if got, want := len(lines), 1+w.Events(); got != want {
		t.Fatalf("CSV has %d lines, want %d (header + events)", got, want)
	}
	if arrived := strings.Count(sb.String(), ",arrived,"); arrived != numTasks {
		t.Fatalf("arrived rows %d, want %d", arrived, numTasks)
	}
	// Sanity: every row has the full column count.
	for i, line := range lines {
		if got := strings.Count(line, ","); got != 5 {
			t.Fatalf("line %d has %d commas: %q", i, got, line)
		}
	}
}

// TestWriteTrials: per-trial CSV rows in trial order, one per result.
func TestWriteTrials(t *testing.T) {
	res, _ := smallRun(t, nil)
	results := []*sim.Result{res, res, res}
	var sb strings.Builder
	if err := WriteTrials(&sb, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 1+len(results) {
		t.Fatalf("lines = %d, want %d", len(lines), 1+len(results))
	}
	if !strings.HasPrefix(lines[0], "trial,robustness,weighted_robustness,") {
		t.Fatalf("header %q", lines[0])
	}
	for i := 1; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], fmt.Sprintf("%d,", i-1)) {
			t.Fatalf("row %d does not start with its trial index: %q", i, lines[i])
		}
	}
	// Empty result sets still produce a well-formed header-only file.
	var empty strings.Builder
	if err := WriteTrials(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(empty.String()); !strings.HasPrefix(got, "trial,") || strings.Contains(got, "\n") {
		t.Fatalf("empty WriteTrials output %q", got)
	}
	// A failing sink propagates its error.
	if err := WriteTrials(&failAfter{limit: 0}, results); err == nil {
		t.Fatal("failing sink accepted")
	}
}

func TestWriterObservesFullRun(t *testing.T) {
	matrix := pet.Standard(pet.DefaultParams())
	cfg := workload.DefaultConfig(800)
	cfg.TimeSpan = 400
	cfg.NumSpikes = 2
	tasks := mustGenerate(t, matrix, cfg)

	var sb strings.Builder
	w, err := NewWriter(&sb)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(matrix, tasks, sim.Config{
		Mode: sim.BatchMode, Heuristic: sched.NewMM(),
		MachineTypes: []int{0, 1, 2, 3, 4, 5, 6, 7},
		Prune:        core.DefaultConfig(12), Seed: 3, ExcludeBoundary: 10,
		Observer: w.Observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "time,event,task,type,machine,on_time" {
		t.Fatalf("header = %q", lines[0])
	}
	if w.Events() != len(lines)-1 {
		t.Fatalf("Events() = %d, lines = %d", w.Events(), len(lines)-1)
	}
	// Every task arrives exactly once.
	arrived := strings.Count(out, ",arrived,")
	if arrived != len(tasks) {
		t.Fatalf("arrived events %d, tasks %d", arrived, len(tasks))
	}
	// Completions in the trace cover all completed tasks (counted window or
	// not).
	completed := strings.Count(out, ",completed,")
	if completed == 0 {
		t.Fatal("no completion events traced")
	}
	if res.OnTime == 0 {
		t.Fatal("degenerate run")
	}
	for _, frag := range []string{",mapped,", ",started,"} {
		if !strings.Contains(out, frag) {
			t.Errorf("trace missing %q events", frag)
		}
	}
}

func TestWriteTasks(t *testing.T) {
	tasks := []*task.Task{
		task.New(0, 3, 1.5, 9.25),
		task.New(1, 7, 2.0, 11.5),
	}
	var sb strings.Builder
	if err := WriteTasks(&sb, tasks); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[0] != "id,type,arrival,deadline" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,3,1.5000,9.2500") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestWritePETMeans(t *testing.T) {
	m := pet.Standard(pet.DefaultParams())
	var sb strings.Builder
	if err := WritePETMeans(&sb, m); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 1+m.NumTaskTypes() {
		t.Fatalf("lines = %d, want %d", len(lines), 1+m.NumTaskTypes())
	}
	if !strings.HasPrefix(lines[1], "gzip,") {
		t.Fatalf("first row = %q", lines[1])
	}
}

func TestWritePETPMF(t *testing.T) {
	m := pet.Standard(pet.DefaultParams())
	var sb strings.Builder
	if err := WritePETPMF(&sb, m, 0, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("PMF export too small: %d lines", len(lines))
	}
	if err := WritePETPMF(&sb, m, 99, 0); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
	if err := WritePETPMF(&sb, m, 0, -1); err == nil {
		t.Fatal("negative machine accepted")
	}
}
