package sim

import (
	"fmt"

	"prunesim/internal/eventq"
	"prunesim/internal/pet"
	"prunesim/internal/pmf"
	"prunesim/internal/task"
)

// runMaterialized is the reference simulation the equivalence tests compare
// the production loop against. It shares the per-event handlers (mapping
// event, completions, platform events) but has its own outer loop and
// tally: every arrival is pushed into the event queue up front, so the
// heap alone decides event order, and the counted window is tallied by an
// ID-order scan of the slice once the queue is empty.
func runMaterialized(matrix *pet.Matrix, tasks []*task.Task, cfg Config) (*Result, error) {
	s, err := newSimCore(matrix, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.AutoExcludeBoundary && cfg.ExcludeBoundary >= 0 && len(tasks) <= 2*cfg.ExcludeBoundary+1 {
		s.cfg.ExcludeBoundary = len(tasks) / 4
	}
	if s.cfg.ExcludeBoundary < 0 || 2*s.cfg.ExcludeBoundary >= len(tasks) {
		return nil, fmt.Errorf("sim: ExcludeBoundary %d out of range for %d tasks", s.cfg.ExcludeBoundary, len(tasks))
	}
	// recordOutcome records every outcome into the stream tally, but with no
	// arrival ever counted there (arrived stays 0) drainOutcomes never
	// folds one: the Result comes from finalizeMaterialized alone.
	s.stream = streamState{}

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
	// Platform events are pushed before arrivals so that at equal
	// timestamps the platform change pops first (FIFO tie-break).
	for i, pe := range s.cfg.Events {
		s.events.Push(eventq.Event{Time: pe.Time, Kind: eventq.KindPlatform, TaskID: i, Machine: -1})
	}
	for _, t := range tasks {
		t.Status = task.StatusUnarrived
		t.Machine = -1
		t.Start, t.Completion = 0, 0
		t.Deferrals = 0
		s.events.Push(eventq.Event{Time: t.Arrival, Kind: eventq.KindArrival, TaskID: t.ID, Machine: -1})
	}
	for s.events.Len() > 0 {
		e := s.events.Pop()
		if s.cfg.Clock != nil {
			s.cfg.Clock.Advance(e.Time)
		}
		s.now = e.Time
		var arrived *task.Task
		switch e.Kind {
		case eventq.KindArrival:
			t := tasks[e.TaskID]
			t.Status = task.StatusBatchQueued
			s.emit(TraceArrived, t, -1, false)
			if s.cfg.Mode == BatchMode {
				s.batch = append(s.batch, t)
			} else {
				arrived = t
			}
		case eventq.KindCompletion:
			if e.Gen != s.gen[e.Machine] {
				continue
			}
			s.handleCompletion(e.Machine)
		case eventq.KindPlatform:
			s.handlePlatform(s.cfg.Events[e.TaskID])
		}
		s.mappingEvent(arrived)
	}
	s.finalizeMaterialized(tasks)
	if err := s.res.conservationError(); err != nil {
		panic(err)
	}
	return &s.res, nil
}

// finalizeMaterialized resolves tasks still queued when the event queue
// dries up and tallies the counted window by scanning the slice in ID
// order.
func (s *simulator) finalizeMaterialized(tasks []*task.Task) {
	for _, t := range tasks {
		if t.Status == task.StatusBatchQueued || t.Status == task.StatusMachineQueued {
			if t.Missed(s.now) {
				t.Status = task.StatusDroppedReactive
			}
		}
	}
	lo := s.cfg.ExcludeBoundary
	hi := len(tasks) - s.cfg.ExcludeBoundary
	s.res.TotalTasks = len(tasks)
	for _, t := range tasks {
		if t.ID < lo || t.ID >= hi {
			continue
		}
		s.res.Counted++
		value := t.Value
		if value <= 0 {
			value = 1
		}
		s.res.ValueTotal += value
		switch t.Status {
		case task.StatusCompletedOnTime:
			s.res.OnTime++
			s.res.ValueOnTime += value
			s.res.PerTypeOnTime[t.Type]++
		case task.StatusCompletedLate:
			s.res.Late++
		case task.StatusDroppedReactive:
			s.res.DroppedReactive++
			s.res.PerTypeDropped[t.Type]++
		case task.StatusDroppedProactive:
			s.res.DroppedProactive++
			s.res.PerTypeDropped[t.Type]++
		default:
			s.res.Unfinished++
		}
	}
	if s.res.Counted > 0 {
		s.res.Robustness = 100 * float64(s.res.OnTime) / float64(s.res.Counted)
	}
	if s.res.ValueTotal > 0 {
		s.res.WeightedRobustness = 100 * s.res.ValueOnTime / s.res.ValueTotal
	}
}
