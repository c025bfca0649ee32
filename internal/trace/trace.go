// Package trace exports simulation artifacts — task lifecycle event logs,
// workload task lists and PET matrices — as CSV for offline analysis and
// plotting. The Writer type plugs directly into sim.Config.Observer.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"prunesim/internal/pet"
	"prunesim/internal/sim"
	"prunesim/internal/task"
)

// Writer streams task lifecycle events as CSV rows. Create one with
// NewWriter, pass its Observe method as sim.Config.Observer, and call Flush
// when the run finishes.
type Writer struct {
	w   *csv.Writer
	err error
	n   int
}

// NewWriter writes a CSV header and returns a lifecycle event writer.
func NewWriter(out io.Writer) (*Writer, error) {
	w := csv.NewWriter(out)
	if err := w.Write([]string{"time", "event", "task", "type", "machine", "on_time"}); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: w}, nil
}

// Observe records one event. Errors are latched and reported by Flush.
func (t *Writer) Observe(ev sim.TraceEvent) {
	if t.err != nil {
		return
	}
	t.err = t.w.Write([]string{
		strconv.FormatFloat(ev.Time, 'f', 4, 64),
		ev.Kind.String(),
		strconv.Itoa(ev.TaskID),
		strconv.Itoa(ev.TaskType),
		strconv.Itoa(ev.Machine),
		strconv.FormatBool(ev.OnTime),
	})
	if t.err == nil {
		t.n++
	}
}

// Events returns the number of events written so far.
func (t *Writer) Events() int { return t.n }

// Flush flushes buffered rows and returns the first error encountered.
func (t *Writer) Flush() error {
	t.w.Flush()
	if t.err != nil {
		return fmt.Errorf("trace: %w", t.err)
	}
	if err := t.w.Error(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// WriteTrials exports per-trial results of a finished run as CSV, one row
// per trial in trial order — the per-job artifact prunesimd serves at
// GET /v1/jobs/{id}/trials.csv and a convenient import into any plotting
// pipeline.
func WriteTrials(out io.Writer, results []*sim.Result) error {
	w := csv.NewWriter(out)
	if err := w.Write([]string{
		"trial", "robustness", "weighted_robustness", "counted", "on_time",
		"late", "dropped_reactive", "dropped_proactive", "unfinished",
		"deferrals", "mapping_events", "makespan", "busy_time", "wasted_time",
	}); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for i, r := range results {
		if err := w.Write([]string{
			strconv.Itoa(i),
			strconv.FormatFloat(r.Robustness, 'f', 4, 64),
			strconv.FormatFloat(r.WeightedRobustness, 'f', 4, 64),
			strconv.Itoa(r.Counted),
			strconv.Itoa(r.OnTime),
			strconv.Itoa(r.Late),
			strconv.Itoa(r.DroppedReactive),
			strconv.Itoa(r.DroppedProactive),
			strconv.Itoa(r.Unfinished),
			strconv.Itoa(r.Deferrals),
			strconv.Itoa(r.MappingEvents),
			strconv.FormatFloat(r.Makespan, 'f', 4, 64),
			strconv.FormatFloat(r.BusyTime, 'f', 4, 64),
			strconv.FormatFloat(r.WastedTime, 'f', 4, 64),
		}); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// WriteTasks exports a workload trial (arrival order, type, arrival,
// deadline) as CSV — the shape of the paper's published trial files.
func WriteTasks(out io.Writer, tasks []*task.Task) error {
	w := csv.NewWriter(out)
	if err := w.Write([]string{"id", "type", "arrival", "deadline"}); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for _, t := range tasks {
		if err := w.Write([]string{
			strconv.Itoa(t.ID),
			strconv.Itoa(t.Type),
			strconv.FormatFloat(t.Arrival, 'f', 4, 64),
			strconv.FormatFloat(t.Deadline, 'f', 4, 64),
		}); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// WritePETMeans exports the matrix of expected execution times with task and
// machine type names.
func WritePETMeans(out io.Writer, m *pet.Matrix) error {
	w := csv.NewWriter(out)
	header := make([]string, 0, m.NumMachineTypes()+1)
	header = append(header, "task_type")
	for j := 0; j < m.NumMachineTypes(); j++ {
		header = append(header, m.MachineTypeName(j))
	}
	if err := w.Write(header); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for t := 0; t < m.NumTaskTypes(); t++ {
		row := make([]string, 0, len(header))
		row = append(row, m.TaskTypeName(t))
		for j := 0; j < m.NumMachineTypes(); j++ {
			row = append(row, strconv.FormatFloat(m.MeanExec(t, j), 'f', 4, 64))
		}
		if err := w.Write(row); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// WritePETPMF exports the full PMF of one PET cell as (time, probability)
// rows.
func WritePETPMF(out io.Writer, m *pet.Matrix, taskType, machineType int) error {
	if taskType < 0 || taskType >= m.NumTaskTypes() || machineType < 0 || machineType >= m.NumMachineTypes() {
		return fmt.Errorf("trace: cell (%d,%d) outside %dx%d matrix",
			taskType, machineType, m.NumTaskTypes(), m.NumMachineTypes())
	}
	w := csv.NewWriter(out)
	if err := w.Write([]string{"time", "probability"}); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	times, masses := m.PET(taskType, machineType).Support()
	for i := range times {
		if err := w.Write([]string{
			strconv.FormatFloat(times[i], 'f', 4, 64),
			strconv.FormatFloat(masses[i], 'g', 8, 64),
		}); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
