package sim

import (
	"prunesim/internal/eventq"
	"prunesim/internal/machine"
	"prunesim/internal/sched"
	"prunesim/internal/task"
)

// minDuration floors sampled execution times so zero-length executions
// cannot stall simulated time.
const minDuration = 1e-6

// emit sends a lifecycle event to the observer, if any.
func (s *simulator) emit(kind TraceKind, t *task.Task, mach int, onTime bool) {
	s.emitChance(kind, t, mach, onTime, -1)
}

// emitChance is emit with the predicted chance of success attached.
func (s *simulator) emitChance(kind TraceKind, t *task.Task, mach int, onTime bool, chance float64) {
	if s.cfg.Observer == nil {
		return
	}
	s.cfg.Observer(TraceEvent{
		Time: s.now, Kind: kind, TaskID: t.ID, TaskType: t.Type,
		Machine: mach, OnTime: onTime, Chance: chance,
	})
}

// handleCompletion finishes the running task on machine j and records it in
// the pruner.
func (s *simulator) handleCompletion(j int) {
	m := s.machines[j]
	t := m.Complete(s.now)
	dur := s.now - t.Start
	s.res.BusyTime += dur
	onTime := t.Status == task.StatusCompletedOnTime
	if !onTime {
		s.res.WastedTime += dur
	}
	s.pruner.RecordCompletion(t.Type, onTime)
	s.emit(TraceCompleted, t, j, onTime)
	if s.now > s.res.Makespan {
		s.res.Makespan = s.now
	}
	s.recordOutcome(t)
}

// swept is the pruner's Sweep callback: it reports a task dropped from
// machine queue j and records its outcome.
func (s *simulator) swept(t *task.Task, j int) {
	kind := TraceDroppedReactive
	if t.Status == task.StatusDroppedProactive {
		kind = TraceDroppedProactive
	}
	s.emit(kind, t, j, false)
	s.recordOutcome(t)
}

// mappingEvent implements Figure 5. arrived is non-nil only in immediate
// mode, where the triggering arrival must be mapped within its own event.
func (s *simulator) mappingEvent(arrived *task.Task) {
	s.res.MappingEvents++
	s.sweepArrivals()
	s.pruner.Sweep(s.machines, s.now, s.swept)
	if s.cfg.Mode == ImmediateMode {
		if arrived != nil {
			s.batch = append(s.batch, arrived)
		}
		s.immediateMap()
	} else {
		s.batchMap()
	}
	s.startMachines()
}

// immediateMap drains the immediate-mode arrival queue FCFS through the
// heuristic's Pick. With a static platform the queue holds at most the
// triggering arrival, so the Pick/Enqueue sequence is exactly the classic
// immediate path; tasks only accumulate when every machine is down (Pick
// returns -1) or a failure orphaned work, and they drain at the next event
// with capacity.
func (s *simulator) immediateMap() {
	if len(s.batch) == 0 {
		return
	}
	mapped := 0
	for _, t := range s.batch {
		j := s.imm.Pick(s.schedCtx(), t)
		if j < 0 {
			break // no usable machine; keep FCFS order and retry next event
		}
		chance := -1.0
		if s.cfg.Observer != nil {
			chance = s.machines[j].ChanceIfEnqueued(t.Type, t.Deadline, s.now)
		}
		s.machines[j].Enqueue(t, s.now)
		s.emitChance(TraceMapped, t, j, false, chance)
		mapped++
	}
	if mapped > 0 {
		n := copy(s.batch, s.batch[mapped:])
		for i := n; i < len(s.batch); i++ {
			s.batch[i] = nil
		}
		s.batch = s.batch[:n]
	}
}

// sweepArrivals drops every arrival-queue task whose deadline has already
// passed (Figure 5 step 1 on the queue the simulator owns; the pruner's
// Sweep covers the machine queues) — the baseline behaviour of the system,
// active with or without the pruning mechanism. In immediate mode the
// arrival queue is non-empty only when platform events parked or requeued
// tasks; they age like batch-queued tasks.
func (s *simulator) sweepArrivals() {
	if len(s.batch) == 0 {
		return
	}
	kept := s.batch[:0]
	for _, t := range s.batch {
		if t.Missed(s.now) {
			t.Status = task.StatusDroppedReactive
			s.pruner.RecordReactiveDrop(t.Type)
			s.emit(TraceDroppedReactive, t, -1, false)
			s.recordOutcome(t)
			continue
		}
		kept = append(kept, t)
	}
	for i := len(kept); i < len(s.batch); i++ {
		s.batch[i] = nil
	}
	s.batch = kept
}

// batchMap runs the mapping heuristic over the arrival queue and applies
// the deferring operation to its assignments (Figure 5 steps 7-11). Tasks
// deferred in this event are excluded from re-mapping until the next event.
func (s *simulator) batchMap() {
	if len(s.batch) == 0 {
		return
	}
	// Each enqueue takes one free slot (heuristics assign only to machines
	// with one), so free stays equal to totalFreeSlots through the event.
	free := s.totalFreeSlots()
	if free == 0 {
		return
	}
	ctx := s.schedCtx()
	// avail is the arrival queue minus the tasks already deferred or
	// enqueued within this event, in queue order: Map compacts the tasks
	// it did not assign to the front (the sched.Batch contract).
	avail := append(s.availBuf[:0], s.batch...)
	enqueued := 0
	for len(avail) > 0 && free > 0 {
		asgs := s.bat.Map(ctx, avail)
		if len(asgs) == 0 {
			break
		}
		avail = avail[:len(avail)-len(asgs)]
		for _, a := range asgs {
			m := s.machines[a.Machine]
			chance := m.ChanceIfEnqueued(a.Task.Type, a.Task.Deadline, s.now)
			if s.pruner.ShouldDeferValued(chance, a.Task.Type, a.Task.Value) {
				a.Task.Deferrals++
				s.res.Deferrals++
				s.emitChance(TraceDeferred, a.Task, a.Machine, false, chance)
				continue
			}
			m.Enqueue(a.Task, s.now)
			s.emitChance(TraceMapped, a.Task, a.Machine, false, chance)
			enqueued++
			free--
		}
	}
	s.availBuf = avail
	if enqueued > 0 {
		kept := s.batch[:0]
		for _, t := range s.batch {
			if t.Status == task.StatusBatchQueued {
				kept = append(kept, t)
			}
		}
		for i := len(kept); i < len(s.batch); i++ {
			s.batch[i] = nil
		}
		s.batch = kept
	}
}

// startMachines begins execution on every idle machine with pending work and
// schedules the corresponding completion events.
func (s *simulator) startMachines() {
	for j, m := range s.machines {
		if m.Down() || !m.Idle() || m.PendingCount() == 0 {
			continue
		}
		t := m.StartNext(s.now)
		s.emit(TraceStarted, t, j, false)
		// A degraded machine's ground truth stretches by the same factor the
		// scheduler's PET view does; slow is 1 (exact multiplicative
		// identity) on a nominal machine.
		dur := s.sampleDuration(t, m) * s.slow[j]
		s.events.Push(eventq.Event{
			Time:    s.now + dur,
			Kind:    eventq.KindCompletion,
			TaskID:  t.ID,
			Machine: j,
			Gen:     s.gen[j],
		})
	}
}

// sampleDuration realizes the ground-truth execution time of t on m from
// the PET PMF, using an independent per-(task, machine) random sub-stream.
// The sub-stream is reseeded into one reusable RNG, so sampling allocates
// nothing even across millions of task starts.
func (s *simulator) sampleDuration(t *task.Task, m *machine.Machine) float64 {
	s.durRNG.SplitInto(s.cfg.Seed, uint64(t.ID)*256+uint64(m.ID()))
	dur := s.matrix.PET(t.Type, m.TypeIndex()).Sample(s.durRNG)
	if dur < minDuration {
		dur = minDuration
	}
	return dur
}

// schedCtx returns the heuristic context for the current event. The context
// is built once per simulation (only Now changes between events).
func (s *simulator) schedCtx() *sched.Context {
	s.ctx.Now = s.now
	return &s.ctx
}

func (s *simulator) totalFreeSlots() int {
	free := 0
	for _, m := range s.machines {
		if m.Down() {
			continue
		}
		if f := s.cfg.Slots - m.PendingCount(); f > 0 {
			free += f
		}
	}
	return free
}
