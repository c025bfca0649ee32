package service

import (
	"fmt"
	"time"

	"prunesim/internal/scenario"
	"prunesim/internal/timeline"
)

// startWorkers launches the worker pool draining the job queue. Workers
// exit when the queue channel is closed (Close) and drained.
func (s *Server) startWorkers(n int) {
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.process(job)
			}
		}()
	}
}

// tryEnqueue places a job on the bounded queue without ever blocking the
// accept loop: a full queue (or a closed server) rejects immediately and
// the HTTP layer turns that into 429 (or 503). This is the backpressure
// seam — under overload clients shed, workers never see more than
// cap(queue) + workers in-flight jobs.
func (s *Server) tryEnqueue(job *Job) enqueueResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return enqueueClosed
	}
	select {
	case s.queue <- job:
		s.register(job)
		s.metrics.JobsQueued.Add(1)
		return enqueueOK
	default:
		return enqueueFull
	}
}

// enqueueResult is the outcome of a tryEnqueue attempt.
type enqueueResult int

const (
	enqueueOK enqueueResult = iota
	enqueueFull
	enqueueClosed
)

// process runs one job to a terminal state: engine execution with live
// per-trial progress events, then the outcome lands in the result store so
// every future identical submission is a cache hit.
//
// The deferred recover is the worker pool's last line of defense: the
// engine already converts per-trial panics to errors, but if any future
// arrival model (or the engine itself) panics outside that guard, the job
// fails with a diagnostic instead of the panic unwinding through the
// worker goroutine and killing prunesimd.
func (s *Server) process(job *Job) {
	s.metrics.JobsQueued.Add(-1)
	s.metrics.JobsRunning.Add(1)
	defer s.metrics.JobsRunning.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			s.metrics.JobsFailed.Add(1)
			job.fail(fmt.Errorf("internal error: %v", r))
		}
	}()
	tl := timeline.New(job.scenario.Run.Trials)
	wait := job.setRunning(tl)
	s.metrics.QueueWait.Observe(wait.Seconds())
	if len(job.scenario.Events) > 0 {
		job.publish(Event{Type: "platform", Platform: job.scenario.Events})
	}
	s.metrics.EngineRuns.Add(1)
	runStart := time.Now()
	lastEmit := runStart
	// The progress callback is serialized by the engine, so lastEmit needs
	// no lock. Timeline events interleave with progress at the configured
	// cadence; a final one lands after the last trial regardless.
	outcome, err := s.engine.RunWithProgress(job.scenario, func(p scenario.TrialProgress) {
		s.metrics.TrialsDone.Add(1)
		s.metrics.TrialDuration.Observe(p.DurationSeconds)
		tl.Observe(timeline.Observation{
			Trial:      p.Trial,
			At:         time.Since(runStart).Seconds(),
			Duration:   p.DurationSeconds,
			Robustness: p.Robustness,
			Counts:     p.Counts,
		})
		tp := p
		job.publish(Event{Type: "progress", Trial: &tp})
		if now := time.Now(); now.Sub(lastEmit) >= s.timelineInterval {
			lastEmit = now
			job.publish(Event{Type: "timeline", Timeline: tl.Snapshot()})
		}
	})
	s.metrics.RunDuration.Observe(time.Since(runStart).Seconds())
	if err != nil {
		s.metrics.JobsFailed.Add(1)
		job.fail(err)
		return
	}
	job.publish(Event{Type: "timeline", Timeline: tl.Snapshot()})
	s.store.Put(job.hash, outcome)
	s.metrics.JobsDone.Add(1)
	job.complete(outcome, false)
}
