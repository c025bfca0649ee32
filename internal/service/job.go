package service

import (
	"sync"
	"time"

	"prunesim/internal/scenario"
	"prunesim/internal/sim"
	"prunesim/internal/stats"
	"prunesim/internal/timeline"
)

// State is a job's position in its lifecycle. Transitions are strictly
// forward: queued → running → done|failed, with cache hits born done.
type State string

// Job lifecycle states.
const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is executing the scenario's trials.
	StateRunning State = "running"
	// StateDone: finished with an outcome (possibly straight from cache).
	StateDone State = "done"
	// StateFailed: the engine returned an error.
	StateFailed State = "failed"
)

// Event is one entry of a job's progress stream, delivered over SSE as the
// `data:` payload (the SSE `event:` field carries Type). Every event the
// job ever emitted is retained, so late subscribers replay the full
// history before going live.
type Event struct {
	// Type is "queued", "running", "platform", "progress", "timeline",
	// "done" or "failed".
	Type string `json:"type"`
	// JobID names the emitting job.
	JobID string `json:"job_id"`
	// Trial carries per-trial progress (Type "progress" only).
	Trial *scenario.TrialProgress `json:"trial,omitempty"`
	// Timeline carries a snapshot of the job's streaming aggregate (Type
	// "timeline" only): binned outcome rates, robustness-so-far and trial
	// duration quantiles. Emitted periodically between progress events and
	// once more after the last trial.
	Timeline *timeline.Snapshot `json:"timeline,omitempty"`
	// Platform carries the scenario's scheduled platform-event block (Type
	// "platform" only), published once when a churn scenario starts running
	// so stream consumers can mark failure/join/degrade times on live
	// charts.
	Platform []scenario.EventSpec `json:"platform,omitempty"`
	// Robustness summarizes the outcome (Type "done" only).
	Robustness *stats.Summary `json:"robustness,omitempty"`
	// CacheHit marks a "done" event answered from the result store.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Error carries the failure message (Type "failed" only).
	Error string `json:"error,omitempty"`
}

// Job tracks one submitted scenario through the queue, the worker pool and
// into the result store. All mutable state sits behind mu. The event
// history is append-only: SSE readers hold a cursor into it and are woken
// by publish, so a reader never misses, duplicates or drops an event.
type Job struct {
	// Immutable after creation.
	id       string
	hash     string
	scenario scenario.Scenario // normalized
	created  time.Time
	// release, when set, frees the submitting tenant's in-flight job slot.
	// Invoked at most once — when the job reaches a terminal state, or
	// immediately if the submission is refused after the slot was claimed.
	// Set before the job is enqueued; cleared under mu by releaseSlot.
	release func()

	mu       sync.Mutex
	state    State
	cacheHit bool
	errMsg   string
	outcome  *scenario.Outcome
	started  time.Time
	finished time.Time
	history  []Event
	// wakes are the one-slot channels of live SSE readers, signalled
	// (never blocked on) by every publish.
	wakes map[chan struct{}]struct{}
	// tl is the job's streaming aggregate, attached when a worker starts
	// the run and retained after completion (the timeline endpoint serves
	// finished jobs too). Nil for cache-served jobs, whose timeline is
	// rebuilt from the stored results on demand.
	tl *timeline.Timeline
}

// newJob returns a queued job for a normalized scenario.
func newJob(id, hash string, s scenario.Scenario) *Job {
	j := &Job{
		id:       id,
		hash:     hash,
		scenario: s,
		created:  time.Now(),
		state:    StateQueued,
	}
	j.publish(Event{Type: "queued"})
	return j
}

// publish appends an event to the history and wakes every live reader
// without blocking on any of them.
func (j *Job) publish(ev Event) {
	ev.JobID = j.id
	j.mu.Lock()
	defer j.mu.Unlock()
	j.history = append(j.history, ev)
	for wake := range j.wakes {
		select {
		case wake <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

// terminal reports whether ev ends a job's stream.
func terminal(ev Event) bool { return ev.Type == "done" || ev.Type == "failed" }

// subscribe registers a reader's wake channel, signalled after every
// publish; read the events themselves with eventsFrom. The channel is nil
// when the history already ends the stream. cancel is idempotent.
func (j *Job) subscribe() (wake <-chan struct{}, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n := len(j.history); n > 0 && terminal(j.history[n-1]) {
		return nil, func() {}
	}
	ch := make(chan struct{}, 1)
	if j.wakes == nil {
		j.wakes = make(map[chan struct{}]struct{})
	}
	j.wakes[ch] = struct{}{}
	return ch, func() {
		j.mu.Lock()
		delete(j.wakes, ch)
		j.mu.Unlock()
	}
}

// eventsFrom returns the events published since cursor next. The slice is
// capped at its length, so later appends never write into what it shows
// and the caller may read it without holding mu.
func (j *Job) eventsFrom(next int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.history[next:len(j.history):len(j.history)]
}

// setRunning transitions queued → running, attaches the job's streaming
// timeline, and returns how long the job sat queued (the queue-wait
// histogram observation).
func (j *Job) setRunning(tl *timeline.Timeline) time.Duration {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.tl = tl
	wait := j.started.Sub(j.created)
	j.mu.Unlock()
	j.publish(Event{Type: "running"})
	return wait
}

// timelineSnapshot renders the job's live aggregate. Cache-served jobs
// rebuild it from the stored per-trial results via the deterministic
// sorted fold (no completion times survive the store, so the snapshot has
// totals and robustness quantiles but no time bins). Returns nil for jobs
// that have not started.
func (j *Job) timelineSnapshot() *timeline.Snapshot {
	j.mu.Lock()
	tl := j.tl
	outcome := j.outcome
	trials := j.scenario.Run.Trials
	j.mu.Unlock()
	if tl != nil {
		return tl.Snapshot()
	}
	if outcome == nil {
		return nil
	}
	rebuilt := timeline.New(trials)
	rebuilt.Fold(observations(outcome.Results))
	return rebuilt.Snapshot()
}

// observations converts stored per-trial results into timeline
// observations with unknown completion times and durations.
func observations(results []*sim.Result) []timeline.Observation {
	obs := make([]timeline.Observation, len(results))
	for i, r := range results {
		obs[i] = timeline.Observation{
			Trial:      i,
			At:         -1,
			Duration:   -1,
			Robustness: r.Robustness,
			Counts:     timeline.ResultCounts(r),
		}
	}
	return obs
}

// releaseSlot invokes the tenant in-flight release hook at most once.
func (j *Job) releaseSlot() {
	j.mu.Lock()
	release := j.release
	j.release = nil
	j.mu.Unlock()
	if release != nil {
		release()
	}
}

// complete transitions to done with an outcome; fromCache marks a result
// served by the store without an engine run.
func (j *Job) complete(o *scenario.Outcome, fromCache bool) {
	j.mu.Lock()
	j.state = StateDone
	j.outcome = o
	j.cacheHit = fromCache
	j.finished = time.Now()
	rob := o.Robustness
	j.mu.Unlock()
	j.releaseSlot()
	j.publish(Event{Type: "done", Robustness: &rob, CacheHit: fromCache})
}

// fail transitions to failed.
func (j *Job) fail(err error) {
	j.mu.Lock()
	j.state = StateFailed
	j.errMsg = err.Error()
	j.finished = time.Now()
	j.mu.Unlock()
	j.releaseSlot()
	j.publish(Event{Type: "failed", Error: err.Error()})
}

// Status is the JSON view of a job returned by POST /v1/jobs and
// GET /v1/jobs/{id}. Outcome is populated only on done jobs.
type Status struct {
	ID       string    `json:"id"`
	State    State     `json:"state"`
	Scenario string    `json:"scenario"`
	Hash     string    `json:"hash"`
	CacheHit bool      `json:"cache_hit"`
	Created  time.Time `json:"created"`
	// Started and Finished are omitted until the job reaches those states.
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// TrialsDone / TrialsTotal report live progress.
	TrialsDone  int               `json:"trials_done"`
	TrialsTotal int               `json:"trials_total"`
	Error       string            `json:"error,omitempty"`
	Outcome     *scenario.Outcome `json:"outcome,omitempty"`
}

// status snapshots the job.
func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.id,
		State:       j.state,
		Scenario:    j.scenario.Name,
		Hash:        j.hash,
		CacheHit:    j.cacheHit,
		Created:     j.created,
		TrialsTotal: j.scenario.Run.Trials,
		Error:       j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	for _, ev := range j.history {
		if ev.Type == "progress" {
			st.TrialsDone++
		}
	}
	if j.state == StateDone {
		st.TrialsDone = st.TrialsTotal
		st.Outcome = j.outcome
	}
	return st
}
