// Package task defines the unit of work flowing through the serverless
// platform: an independent service request (e.g. transcoding one video GOP)
// with an individual hard deadline. Tasks are qualitatively heterogeneous
// (different task types have different affinities to machine types) and
// quantitatively heterogeneous (execution time within a type is stochastic).
package task

import "fmt"

// Status tracks a task through the resource-allocation pipeline.
type Status uint8

const (
	// StatusUnarrived means the task exists in the workload but has not
	// reached the system yet.
	StatusUnarrived Status = iota
	// StatusBatchQueued means the task waits in the arrival (batch) queue.
	StatusBatchQueued
	// StatusMachineQueued means the task is mapped and waits in a machine
	// queue; it can no longer be remapped, only dropped.
	StatusMachineQueued
	// StatusRunning means the task is executing on a machine.
	StatusRunning
	// StatusCompletedOnTime means the task finished at or before its deadline.
	StatusCompletedOnTime
	// StatusCompletedLate means the task started before its deadline but
	// finished after it. It contributes no value (robustness counts only
	// on-time completions).
	StatusCompletedLate
	// StatusDroppedReactive means the task was dropped after its deadline
	// passed while it waited in a queue.
	StatusDroppedReactive
	// StatusDroppedProactive means the pruning mechanism predicted a low
	// chance of success and evicted the task before its deadline.
	StatusDroppedProactive
)

// String returns a stable identifier for the status.
func (s Status) String() string {
	switch s {
	case StatusUnarrived:
		return "unarrived"
	case StatusBatchQueued:
		return "batch-queued"
	case StatusMachineQueued:
		return "machine-queued"
	case StatusRunning:
		return "running"
	case StatusCompletedOnTime:
		return "completed-on-time"
	case StatusCompletedLate:
		return "completed-late"
	case StatusDroppedReactive:
		return "dropped-reactive"
	case StatusDroppedProactive:
		return "dropped-proactive"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Terminal reports whether the status is an end state.
func (s Status) Terminal() bool {
	switch s {
	case StatusCompletedOnTime, StatusCompletedLate, StatusDroppedReactive, StatusDroppedProactive:
		return true
	}
	return false
}

// Dropped reports whether the status is one of the dropped end states.
func (s Status) Dropped() bool {
	return s == StatusDroppedReactive || s == StatusDroppedProactive
}

// Task is one service request. Arrival and Deadline are immutable workload
// attributes; the remaining fields are mutated by the simulator as the task
// moves through the system.
type Task struct {
	// ID is the task's position in arrival order (0-based, unique per trial).
	ID int
	// Type is the task-type index into the PET matrix.
	Type int
	// Arrival is the time the request reaches the resource allocator.
	Arrival float64
	// Deadline is the hard individual deadline (Eq. 4):
	// arrival + avg(type) + beta * avg(all types).
	Deadline float64

	// Status is the task's current pipeline state.
	Status Status
	// Machine is the machine the task was mapped to, or -1.
	Machine int
	// Start is the execution start time (valid once running).
	Start float64
	// Completion is the execution end time (valid once completed).
	Completion float64
	// Deferrals counts how many mapping events deferred this task.
	Deferrals int
	// Value is the task's worth (cost/priority) to the provider. The
	// baseline system treats all tasks equally (Value 1); the value-aware
	// pruning extension (paper Section VII future work) prunes high-value
	// tasks more conservatively and counts value-weighted robustness.
	Value float64
}

// New returns a task in the unarrived state with no machine assignment and
// unit value.
func New(id, typ int, arrival, deadline float64) *Task {
	return &Task{ID: id, Type: typ, Arrival: arrival, Deadline: deadline, Machine: -1, Value: 1}
}

// Missed reports whether the task's deadline has passed at time now.
func (t *Task) Missed(now float64) bool { return now > t.Deadline }

// Slack returns the time remaining until the deadline (negative if passed).
func (t *Task) Slack(now float64) float64 { return t.Deadline - now }

// String identifies the task for logs and error messages.
func (t *Task) String() string {
	return fmt.Sprintf("task{id=%d type=%d arr=%.2f dl=%.2f %s}", t.ID, t.Type, t.Arrival, t.Deadline, t.Status)
}
