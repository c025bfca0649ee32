package service

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"
)

// Metrics aggregates the service's operational counters. All fields are
// atomics, so the hot paths (submit, worker loop, per-trial progress) never
// contend on a lock. Rendered as Prometheus text exposition on
// GET /metrics.
type Metrics struct {
	start time.Time

	// JobsSubmitted counts accepted submissions, including cache hits.
	JobsSubmitted atomic.Int64
	// JobsRejected counts submissions bounced with 429 by queue
	// backpressure (error code queue_full). The two per-tenant 429 causes
	// are counted separately below, so dashboards can tell the global
	// queue limit from a client-specific one.
	JobsRejected atomic.Int64
	// RateLimited counts requests bounced with 429 by a per-tenant token
	// bucket (error code rate_limited).
	RateLimited atomic.Int64
	// InflightRejected counts submissions bounced with 429 by a
	// per-tenant in-flight job cap (error code inflight_limit).
	InflightRejected atomic.Int64
	// Unauthorized counts requests rejected with 401 for presenting an
	// unknown API key.
	Unauthorized atomic.Int64
	// JobsQueued and JobsRunning are gauges of the current pipeline.
	JobsQueued  atomic.Int64
	JobsRunning atomic.Int64
	// JobsDone and JobsFailed count terminal jobs (cache hits count as done).
	JobsDone   atomic.Int64
	JobsFailed atomic.Int64
	// CacheHits counts submissions answered from the result store.
	CacheHits atomic.Int64
	// EngineRuns counts actual Engine executions (submissions minus hits
	// minus rejections minus failures-in-flight); the cache-hit e2e test
	// pins its semantics.
	EngineRuns atomic.Int64
	// TrialsDone counts finished simulation trials across all jobs.
	TrialsDone atomic.Int64

	// SessionsCreated and SessionsExpired count admission-control sessions
	// registered and reaped by the idle TTL.
	SessionsCreated atomic.Int64
	SessionsExpired atomic.Int64
	// Decisions counts admission verdicts served, split by outcome in the
	// three counters below.
	Decisions         atomic.Int64
	DecisionsAccepted atomic.Int64
	DecisionsDeferred atomic.Int64
	DecisionsDropped  atomic.Int64
	// Completions counts reported task completions; StaleCompletions the
	// subset that no longer matched live state (evicted task or failed
	// machine).
	Completions      atomic.Int64
	StaleCompletions atomic.Int64

	// QueueWait observes how long each job sat queued before a worker
	// picked it up; RunDuration observes each job's engine run time
	// (terminal jobs, failed included); TrialDuration observes every
	// finished trial's wall time. DecideLatency observes the in-process
	// service time of admission decide calls (single and batch) on its own
	// microsecond-scale buckets. All in seconds.
	QueueWait     *LatencyHistogram
	RunDuration   *LatencyHistogram
	TrialDuration *LatencyHistogram
	DecideLatency *LatencyHistogram
}

// latencyBuckets are the shared histogram upper bounds in seconds:
// exponential-ish coverage from 1ms (a cache-adjacent trial) to 10min (a
// simulated-week churn sweep on a saturated pool).
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// decideBuckets cover the admission decide path, which is microseconds on
// the incremental-PCT anchor-hit path and tens of microseconds on a full
// reconvolve — the job-scale latencyBuckets would collapse it all into the
// first bucket.
var decideBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2, 0.1,
}

// newMetrics returns a Metrics anchored at the current time (the basis of
// the trials/sec gauge).
func newMetrics() *Metrics {
	return &Metrics{
		start:         time.Now(),
		QueueWait:     newLatencyHistogram("job_queue_wait_seconds", "Time jobs spent queued before a worker started them."),
		RunDuration:   newLatencyHistogram("job_run_seconds", "Engine run time of jobs that reached a terminal state."),
		TrialDuration: newLatencyHistogram("trial_seconds", "Wall-clock duration of individual simulation trials."),
		DecideLatency: newLatencyHistogramBounds("admission_decide_seconds", "In-process service time of admission decide calls.", decideBuckets),
	}
}

// LatencyHistogram is a fixed-bucket latency histogram with atomic
// counters: Observe is lock-free and allocation-free, so the per-trial hot
// path can feed it. Rendered in Prometheus text exposition format
// (cumulative _bucket series plus _sum and _count).
type LatencyHistogram struct {
	name, help string
	bounds     []float64 // upper bounds; one extra implicit +Inf bucket
	counts     []atomic.Int64
	sumBits    atomic.Uint64 // float64 bits of the observation sum
}

// newLatencyHistogram builds a histogram over the shared bucket layout.
func newLatencyHistogram(name, help string) *LatencyHistogram {
	return newLatencyHistogramBounds(name, help, latencyBuckets)
}

// newLatencyHistogramBounds builds a histogram over explicit upper bounds
// (ascending, in seconds).
func newLatencyHistogramBounds(name, help string, bounds []float64) *LatencyHistogram {
	return &LatencyHistogram{
		name:   name,
		help:   help,
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one latency in seconds.
func (h *LatencyHistogram) Observe(seconds float64) {
	if seconds < 0 || math.IsNaN(seconds) {
		return
	}
	i := 0
	for i < len(h.bounds) && seconds > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + seconds)
		if h.sumBits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *LatencyHistogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values in seconds.
func (h *LatencyHistogram) Sum() float64 {
	return math.Float64frombits(h.sumBits.Load())
}

// writePrometheus renders the histogram with the prunesimd_ prefix.
func (h *LatencyHistogram) writePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# HELP prunesimd_%s %s\n# TYPE prunesimd_%s histogram\n", h.name, h.help, h.name)
	var cum int64
	for i, le := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "prunesimd_%s_bucket{le=%q} %d\n", h.name, formatBound(le), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "prunesimd_%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(w, "prunesimd_%s_sum %g\n", h.name, h.Sum())
	fmt.Fprintf(w, "prunesimd_%s_count %d\n", h.name, cum)
}

// formatBound renders a bucket bound the way Prometheus clients do.
func formatBound(le float64) string { return fmt.Sprintf("%g", le) }

// TrialsPerSec reports finished trials per second of service uptime — the
// throughput gauge of the perf trajectory.
func (m *Metrics) TrialsPerSec() float64 {
	secs := time.Since(m.start).Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(m.TrialsDone.Load()) / secs
}

// WritePrometheus renders the counters in Prometheus text exposition
// format. queueDepth and sessionsActive are sampled by the caller (they
// live in the queue channel and the session registry, not here).
func (m *Metrics) WritePrometheus(w io.Writer, queueDepth, sessionsActive int) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP prunesimd_%s %s\n# TYPE prunesimd_%s counter\nprunesimd_%s %d\n",
			name, help, name, name, v)
	}
	gauge := func(name, help string, v string) {
		fmt.Fprintf(w, "# HELP prunesimd_%s %s\n# TYPE prunesimd_%s gauge\nprunesimd_%s %s\n",
			name, help, name, name, v)
	}
	counter("jobs_submitted_total", "Accepted job submissions, including cache hits.", m.JobsSubmitted.Load())
	counter("jobs_rejected_total", "Submissions rejected with 429 by queue backpressure (code queue_full).", m.JobsRejected.Load())
	counter("rate_limited_total", "Requests rejected with 429 by per-tenant token buckets (code rate_limited).", m.RateLimited.Load())
	counter("inflight_rejected_total", "Submissions rejected with 429 by per-tenant in-flight caps (code inflight_limit).", m.InflightRejected.Load())
	counter("unauthorized_total", "Requests rejected with 401 for an unknown API key.", m.Unauthorized.Load())
	counter("jobs_done_total", "Jobs finished successfully, including cache hits.", m.JobsDone.Load())
	counter("jobs_failed_total", "Jobs that ended in an engine error.", m.JobsFailed.Load())
	counter("cache_hits_total", "Submissions answered from the result store.", m.CacheHits.Load())
	counter("engine_runs_total", "Scenario engine executions (cache misses actually simulated).", m.EngineRuns.Load())
	counter("trials_done_total", "Finished simulation trials across all jobs.", m.TrialsDone.Load())
	counter("sessions_created_total", "Admission sessions registered.", m.SessionsCreated.Load())
	counter("sessions_expired_total", "Admission sessions reaped by the idle TTL.", m.SessionsExpired.Load())
	counter("decisions_total", "Admission verdicts served.", m.Decisions.Load())
	counter("decisions_accepted_total", "Admission verdicts that accepted the task.", m.DecisionsAccepted.Load())
	counter("decisions_deferred_total", "Admission verdicts that deferred the task.", m.DecisionsDeferred.Load())
	counter("decisions_dropped_total", "Admission verdicts that dropped the task.", m.DecisionsDropped.Load())
	counter("completions_total", "Task completions reported to admission sessions.", m.Completions.Load())
	counter("stale_completions_total", "Reported completions that no longer matched live state.", m.StaleCompletions.Load())
	gauge("sessions_active", "Live admission sessions.", fmt.Sprintf("%d", sessionsActive))
	gauge("jobs_queued", "Jobs waiting in the queue.", fmt.Sprintf("%d", m.JobsQueued.Load()))
	gauge("jobs_running", "Jobs currently executing on workers.", fmt.Sprintf("%d", m.JobsRunning.Load()))
	gauge("queue_depth", "Occupied slots of the bounded job queue.", fmt.Sprintf("%d", queueDepth))
	gauge("trials_per_sec", "Finished trials per second of uptime.", fmt.Sprintf("%g", m.TrialsPerSec()))
	gauge("uptime_seconds", "Seconds since the service started.", fmt.Sprintf("%g", time.Since(m.start).Seconds()))
	m.QueueWait.writePrometheus(w)
	m.RunDuration.writePrometheus(w)
	m.TrialDuration.writePrometheus(w)
	m.DecideLatency.writePrometheus(w)
}
