package sim

import (
	"fmt"

	"prunesim/internal/eventq"
	"prunesim/internal/pmf"
	"prunesim/internal/task"
)

// The event loop. Run and RunStream both pull tasks from a TaskSource one
// at a time and retire each the moment its outcome is final, so a trial's
// live memory is O(in-flight tasks + fixed aggregator state) instead of
// O(total tasks) whenever the source recycles tasks.
//
// Two invariants keep the Result bitwise-identical to the materialized
// reference semantics (every arrival pushed into the event queue up front,
// the counted window tallied by an ID-order scan at the end; the package
// tests keep that loop as an oracle):
//
//  1. Event order. With platform events pushed first and all arrivals
//     second at init (completions join during the run), a (time, insertion)
//     heap resolves an equal-time tie as platform < arrival < completion.
//     The loop reproduces this with a one-task lookahead racing the queue
//     head: an arrival at the queue head's timestamp goes first unless the
//     head is a platform event.
//
//  2. Tally order. The counted window's floats (ValueTotal, ValueOnTime)
//     accumulate by ascending task ID. The tally buffers out-of-order
//     outcomes in a ring indexed by ID − nextFold and folds them in
//     strictly increasing ID order, holding back IDs near the trailing
//     exclusion boundary until enough later arrivals prove them inside the
//     window. The ring spans at most the out-of-order window plus
//     ExcludeBoundary stalled IDs — never the whole workload.

// outcome is the fixed-size record of one finished task — everything the
// counted-window tally needs after the struct is recycled.
type outcome struct {
	status task.Status
	set    bool // the ring slot holds a recorded outcome
	typ    int
	value  float64
}

// outcomeRing holds recorded outcomes not yet folded: the outcome of task
// nextFold+k sits in buf[(head+k) mod len(buf)]. It grows by doubling
// (len(buf) is zero or a power of two), and its zero value is empty.
type outcomeRing struct {
	buf  []outcome
	head int
}

// put records o at offset k past the fold cursor.
func (r *outcomeRing) put(k int, o outcome) {
	if k >= len(r.buf) {
		n := max(2*len(r.buf), 64)
		for n <= k {
			n *= 2
		}
		buf := make([]outcome, n)
		copy(buf[copy(buf, r.buf[r.head:]):], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	o.set = true
	r.buf[(r.head+k)&(len(r.buf)-1)] = o
}

// pop removes and returns the outcome at the fold cursor and advances the
// cursor; ok is false, and nothing moves, if none is recorded there yet.
func (r *outcomeRing) pop() (o outcome, ok bool) {
	if len(r.buf) == 0 || !r.buf[r.head].set {
		return outcome{}, false
	}
	o, r.buf[r.head] = r.buf[r.head], outcome{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	return o, true
}

// streamState is the task source and tally state of one trial.
type streamState struct {
	src TaskSource
	rec TaskRecycler // src's recycler, nil if it has none

	nextArr *task.Task // one-task lookahead racing the event queue
	pulled  int        // tasks yielded by the source (ID contract cursor)
	arrived int        // arrival events processed; max arrived ID + 1
	lastArr float64    // last arrival time seen (order contract)

	pending  outcomeRing // recorded outcomes not yet folded, by ID − nextFold
	nextFold int         // next task ID to fold into the Result
}

// pullArrival advances the lookahead, enforcing the source contract: IDs
// sequential from 0 in yield order, arrival times non-decreasing.
func (s *simulator) pullArrival() error {
	st := &s.stream
	t, ok := st.src.Next()
	if !ok {
		st.nextArr = nil
		return nil
	}
	if t.ID != st.pulled {
		return fmt.Errorf("sim: task source yielded ID %d, want %d (IDs must be sequential in arrival order)", t.ID, st.pulled)
	}
	if st.pulled > 0 && t.Arrival < st.lastArr {
		return fmt.Errorf("sim: task source arrivals out of order: %v after %v", t.Arrival, st.lastArr)
	}
	st.pulled++
	st.lastArr = t.Arrival
	st.nextArr = t
	return nil
}

// recordOutcome captures a task's final outcome, recycles the struct if the
// source reuses tasks, and folds whatever the window now allows. The task
// must no longer be referenced by any queue.
func (s *simulator) recordOutcome(t *task.Task) {
	st := &s.stream
	st.pending.put(t.ID-st.nextFold, outcome{status: t.Status, typ: t.Type, value: t.Value})
	if st.rec != nil {
		st.rec.Recycle(t)
	}
	s.drainOutcomes()
}

// drainOutcomes folds recorded outcomes into the Result in strictly
// increasing ID order — the float summation order. An ID folds only
// once its window membership is certain:
//
//   - maxArrived >= 2*lo+1 proves the final total exceeds 2*lo+1, so the
//     effective boundary is exactly the configured one (finalizeStream's
//     small-workload clamp can no longer fire), and
//   - id <= maxArrived-lo proves id < total-lo whatever the final total is.
//
// Everything else waits for finalizeStream's exact-total drain.
func (s *simulator) drainOutcomes() {
	st := &s.stream
	lo := s.cfg.ExcludeBoundary
	maxID := st.arrived - 1
	if maxID < 2*lo+1 {
		return
	}
	for st.nextFold <= maxID-lo {
		o, ok := st.pending.pop()
		if !ok {
			return
		}
		if st.nextFold >= lo {
			s.tallyOutcome(o)
		}
		st.nextFold++
	}
}

// tallyOutcome adds one counted-window outcome to the Result.
func (s *simulator) tallyOutcome(o outcome) {
	s.res.Counted++
	value := o.value
	if value <= 0 {
		value = 1
	}
	s.res.ValueTotal += value
	switch o.status {
	case task.StatusCompletedOnTime:
		s.res.OnTime++
		s.res.ValueOnTime += value
		s.res.PerTypeOnTime[o.typ]++
	case task.StatusCompletedLate:
		s.res.Late++
	case task.StatusDroppedReactive:
		s.res.DroppedReactive++
		s.res.PerTypeDropped[o.typ]++
	case task.StatusDroppedProactive:
		s.res.DroppedProactive++
		s.res.PerTypeDropped[o.typ]++
	default:
		s.res.Unfinished++
	}
}

// runStream is the event loop: it races the source's next arrival against
// the event queue until both are exhausted, then finalizes the tally.
func (s *simulator) runStream() (*Result, error) {
	s.scratch = pmf.GetScratch()
	defer func() {
		for _, m := range s.machines {
			m.SetScratch(nil)
		}
		pmf.PutScratch(s.scratch)
		s.scratch = nil
	}()
	for _, m := range s.machines {
		m.SetScratch(s.scratch)
	}
	for i, pe := range s.cfg.Events {
		s.events.Push(eventq.Event{Time: pe.Time, Kind: eventq.KindPlatform, TaskID: i, Machine: -1})
	}
	st := &s.stream
	if err := s.pullArrival(); err != nil {
		return nil, err
	}
	for {
		// Race the pending arrival against the queue head (equal-time tie:
		// platform first, completion last — see the file comment).
		useQueue := false
		if st.nextArr == nil {
			if s.events.Len() == 0 {
				break
			}
			useQueue = true
		} else if s.events.Len() > 0 {
			head := s.events.Peek()
			if head.Time < st.nextArr.Arrival ||
				(head.Time == st.nextArr.Arrival && head.Kind == eventq.KindPlatform) {
				useQueue = true
			}
		}
		if useQueue {
			e := s.events.Pop()
			if s.cfg.Clock != nil {
				s.cfg.Clock.Advance(e.Time)
			}
			s.now = e.Time
			switch e.Kind {
			case eventq.KindCompletion:
				if e.Gen != s.gen[e.Machine] {
					// Stale: the machine failed after scheduling this
					// completion and the task was requeued.
					continue
				}
				s.handleCompletion(e.Machine)
			case eventq.KindPlatform:
				s.handlePlatform(s.cfg.Events[e.TaskID])
			}
			s.mappingEvent(nil)
			continue
		}
		t := st.nextArr
		st.nextArr = nil
		if s.cfg.Clock != nil {
			s.cfg.Clock.Advance(t.Arrival)
		}
		s.now = t.Arrival
		st.arrived++
		// Reset the struct's simulation state (a slice-backed source may
		// hand in tasks of an earlier run); arena-fresh tasks are already
		// in this state.
		t.Status = task.StatusBatchQueued
		t.Machine = -1
		t.Start, t.Completion = 0, 0
		t.Deferrals = 0
		s.emit(TraceArrived, t, -1, false)
		var arrived *task.Task
		if s.cfg.Mode == BatchMode {
			s.batch = append(s.batch, t)
		} else {
			arrived = t
		}
		s.mappingEvent(arrived)
		s.drainOutcomes()
		if err := s.pullArrival(); err != nil {
			return nil, err
		}
	}
	if err := s.finalizeStream(); err != nil {
		return nil, err
	}
	if err := s.res.conservationError(); err != nil {
		panic(err) // invariant violation: a simulator bug, not bad input
	}
	return &s.res, nil
}

// finalizeStream resolves tasks still queued when the event stream dries up
// (they can never run: no event will ever map or start them; no pruner
// accounting, no trace events) and drains the tally with the now-known
// task total.
func (s *simulator) finalizeStream() error {
	for _, t := range s.batch {
		if t.Missed(s.now) {
			t.Status = task.StatusDroppedReactive
		}
		s.recordOutcome(t)
	}
	s.batch = s.batch[:0]
	for _, m := range s.machines {
		if t := m.Running(); t != nil {
			// Unreachable on a conforming event stream (a running task
			// always has a live completion event), kept for conservation.
			s.recordOutcome(t)
		}
		for _, e := range m.Pending() {
			t := e.Task
			if t.Missed(s.now) {
				t.Status = task.StatusDroppedReactive
			}
			s.recordOutcome(t)
		}
	}
	st := &s.stream
	total := st.arrived
	if total == 0 {
		return fmt.Errorf("%w", ErrNoTasks)
	}
	lo := s.cfg.ExcludeBoundary
	if s.cfg.AutoExcludeBoundary && total <= 2*lo+1 {
		// The incremental folds gate on maxArrived >= 2*lo+1, so when this
		// clamp fires nothing has been folded yet and the effective
		// boundary applies to every task.
		lo = total / 4
	} else if 2*lo >= total {
		return fmt.Errorf("sim: ExcludeBoundary %d out of range for %d tasks", lo, total)
	}
	hi := total - lo
	for id := st.nextFold; id < total; id++ {
		o, ok := st.pending.pop()
		if !ok {
			panic(fmt.Sprintf("sim: no outcome recorded for task %d", id))
		}
		if id >= lo && id < hi {
			s.tallyOutcome(o)
		}
	}
	st.nextFold = total
	s.res.TotalTasks = total
	if s.res.Counted > 0 {
		s.res.Robustness = 100 * float64(s.res.OnTime) / float64(s.res.Counted)
	}
	if s.res.ValueTotal > 0 {
		s.res.WeightedRobustness = 100 * s.res.ValueOnTime / s.res.ValueTotal
	}
	return nil
}
