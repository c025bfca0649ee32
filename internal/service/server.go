// Package service is the serving layer of the prunesim reproduction: an
// HTTP/JSON daemon (cmd/prunesimd) that accepts scenario submissions,
// queues them on a bounded async queue, drains them through a worker pool
// running the shared scenario Engine, and caches outcomes in a pluggable
// result store keyed by the canonical scenario content hash — resubmitting
// an identical scenario+seed returns the stored outcome without
// re-simulating.
//
// The v1 surface has two halves. The batch half runs whole scenarios:
//
//	POST /v1/jobs                 submit a scenario (inline JSON or library name)
//	GET  /v1/jobs                 list jobs
//	GET  /v1/jobs/{id}            job status + outcome when done
//	GET  /v1/jobs/{id}/events     SSE stream of per-trial progress + timeline
//	GET  /v1/jobs/{id}/timeline   streaming in-flight aggregate (binned rates,
//	                              robustness-so-far, duration quantiles)
//	GET  /v1/jobs/{id}/trials.csv per-trial result rows (CSV artifact)
//	GET  /v1/scenarios            the embedded scenario library, runnable by name
//
// The online half streams real task arrivals through the pruner
// (internal/admission): register a platform as a session, then ask for an
// accept/defer/drop verdict per arrival and report completions back:
//
//	POST   /v1/sessions                        register an admission session
//	GET    /v1/sessions                        list live sessions
//	GET    /v1/sessions/{id}                   session snapshot (machines, counters)
//	DELETE /v1/sessions/{id}                   close a session
//	POST   /v1/sessions/{id}/decide            verdict for one arriving task
//	POST   /v1/sessions/{id}/decide/batch      verdicts for a batch of arrivals
//	POST   /v1/sessions/{id}/complete          report a finished task
//	POST   /v1/sessions/{id}/machines/{machine}/fail    take a machine down
//	POST   /v1/sessions/{id}/machines/{machine}/rejoin  bring it back
//
// Plus GET /healthz and GET /metrics. Every endpoint answers failures with
// the uniform envelope {"error": {"code", "message", ...}} (see errors.go;
// the full surface is documented in API.md, which api_doc_test.go keeps in
// lockstep with Routes()).
//
// Job lifecycle: queued → running → done | failed; cache hits are born
// done. See DESIGN.md ("The serving layer") for the architecture.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prunesim/internal/admission"
	"prunesim/internal/scenario"
	"prunesim/internal/store"
	"prunesim/internal/tenant"
	"prunesim/internal/timeline"
	"prunesim/internal/trace"
)

// Config parameterizes a Server.
type Config struct {
	// QueueCapacity bounds jobs waiting for a worker (default 64).
	// Submissions beyond it are rejected with 429.
	QueueCapacity int
	// Workers is the worker-pool size (default GOMAXPROCS). Negative means
	// zero workers — jobs queue but never run; tests use this to exercise
	// backpressure deterministically.
	Workers int
	// Parallelism bounds concurrent trials per engine run; 0 defers to
	// each scenario's own setting.
	Parallelism int
	// Store is the result cache (default a fresh in-memory store). The
	// server takes ownership: Close tears it down. Persistent deployments
	// pass a disk-backed store (store.OpenDisk), optionally size-bounded
	// with store.NewLRU.
	Store store.Store
	// Tenants is the multi-tenancy registry: API keys, per-tenant token
	// buckets, QPS accounting and in-flight job caps, enforced uniformly
	// on every /v1 endpoint. Default is a registry with only an unlimited
	// anonymous tenant (the pre-tenancy behavior). It starts no goroutine,
	// so Close has nothing of it to stop.
	Tenants *tenant.Registry
	// IDPrefix prefixes every job and session ID this server mints (e.g.
	// "s1-" on shard 1), making IDs globally unique across a shard fleet
	// so a front door can route by ID alone.
	IDPrefix string
	// ShardIndex/ShardCount declare this server's position in a
	// shard-by-hash fleet (reported in /healthz; 0/0 means standalone).
	ShardIndex int
	ShardCount int
	// Library is the set of named scenarios POST /v1/jobs accepts by name
	// and GET /v1/scenarios lists (typically examples/scenarios.Library()).
	Library []scenario.Scenario
	// TimelineInterval is the minimum spacing between `timeline` SSE
	// events on a running job's stream (default 1s). Progress events are
	// unaffected. Tests shrink it to interleave a timeline event after
	// every trial.
	TimelineInterval time.Duration
	// HeartbeatInterval is the idle SSE keepalive cadence: a comment line
	// (": keepalive") is written whenever the stream has nothing else to
	// say for this long, so proxies and LBs do not reap streams during
	// long trials. Default 15s; negative disables.
	HeartbeatInterval time.Duration
	// SessionTTL is how long an admission session may sit idle before it is
	// expired (default admission.DefaultTTL; negative disables expiry).
	SessionTTL time.Duration
	// MaxSessions caps live admission sessions (default
	// admission.DefaultMaxSessions).
	MaxSessions int
}

// engineRunner is the seam between the worker pool and the sweep engine;
// tests substitute a misbehaving engine to exercise the worker's
// recover-and-fail guard.
type engineRunner interface {
	RunWithProgress(s scenario.Scenario, onTrial func(scenario.TrialProgress)) (*scenario.Outcome, error)
}

// Server owns the queue, worker pool, job registry, result store and
// metrics behind the HTTP API. Create with New, expose with Handler, stop
// with Close. Safe for concurrent use.
type Server struct {
	engine engineRunner
	// eng is the engine behind engine. Sessions lower their platforms
	// through it, so jobs and sessions share its PET-matrix cache.
	eng      *scenario.Engine
	store    store.Store
	metrics  *Metrics
	library  map[string]scenario.Scenario
	libSeq   []scenario.Scenario
	libInfos []scenarioInfo // precomputed: hashing the library per GET is waste
	queue    chan *Job
	sessions *admission.Registry
	tenants  *tenant.Registry
	idPrefix string
	shardIdx int
	shardCnt int
	start    time.Time
	// done closes when Close begins, unblocking long-lived handlers (SSE
	// streams) so a graceful HTTP shutdown is not held hostage by them.
	done chan struct{}
	// timelineInterval and heartbeat are the resolved Config intervals.
	timelineInterval time.Duration
	heartbeat        time.Duration

	mu     sync.Mutex
	closed bool
	jobs   map[string]*Job
	order  []string // job IDs in submission order

	nextID  atomic.Uint64
	workers int
	wg      sync.WaitGroup
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 64
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 0 {
		workers = 0
	}
	if cfg.Store == nil {
		cfg.Store = store.NewMemory()
	}
	if cfg.TimelineInterval == 0 {
		cfg.TimelineInterval = time.Second
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 15 * time.Second
	}
	tenants := cfg.Tenants
	if tenants == nil {
		// A zero tenant.Config cannot fail to validate.
		tenants, _ = tenant.NewRegistry(tenant.Config{})
	}
	eng := scenario.NewEngine(cfg.Parallelism)
	s := &Server{
		engine:           eng,
		eng:              eng,
		store:            cfg.Store,
		metrics:          newMetrics(),
		library:          make(map[string]scenario.Scenario, len(cfg.Library)),
		queue:            make(chan *Job, cfg.QueueCapacity),
		tenants:          tenants,
		idPrefix:         cfg.IDPrefix,
		shardIdx:         cfg.ShardIndex,
		shardCnt:         cfg.ShardCount,
		start:            time.Now(),
		done:             make(chan struct{}),
		jobs:             make(map[string]*Job),
		workers:          workers,
		timelineInterval: cfg.TimelineInterval,
		heartbeat:        cfg.HeartbeatInterval,
	}
	s.sessions = admission.NewRegistry(admission.RegistryConfig{
		TTL:         cfg.SessionTTL,
		MaxSessions: cfg.MaxSessions,
		IDPrefix:    cfg.IDPrefix,
		OnExpired:   func(n int) { s.metrics.SessionsExpired.Add(int64(n)) },
	})
	// Later entries override earlier ones by name (operator -scenarios
	// files shadow embedded library scenarios), and the listing is deduped
	// to match what is actually runnable.
	for _, sc := range cfg.Library {
		if i, ok := s.libIndex(sc.Name); ok {
			s.libSeq[i] = sc
		} else {
			s.libSeq = append(s.libSeq, sc)
		}
		s.library[sc.Name] = sc
	}
	s.libInfos = make([]scenarioInfo, len(s.libSeq))
	for i, sc := range s.libSeq {
		hash, err := sc.Hash()
		if err != nil {
			hash = "invalid: " + err.Error()
		}
		s.libInfos[i] = scenarioInfo{
			Name:        sc.Name,
			Description: sc.Description,
			Hash:        hash,
			Pattern:     sc.Workload.Pattern,
			Tasks:       sc.Workload.Tasks,
			Heuristic:   sc.Platform.Heuristic,
			Trials:      sc.Run.Trials,
		}
	}
	s.startWorkers(workers)
	return s
}

// libIndex finds a scenario's position in the deduped library sequence
// (startup-only; the library is immutable afterwards).
func (s *Server) libIndex(name string) (int, bool) {
	for i, sc := range s.libSeq {
		if sc.Name == name {
			return i, true
		}
	}
	return 0, false
}

// Engine exposes the scenario engine jobs run on and sessions lower their
// platforms through (embedders and tests read its matrix cache).
func (s *Server) Engine() *scenario.Engine { return s.eng }

// Metrics exposes the server's counters (tests and embedders read them).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close stops accepting jobs, waits for in-flight work to finish, then
// tears down what the server owns: the admission-session registry and the
// result store. The store is closed last and only after the final worker's
// Put has returned, so a graceful shutdown never truncates a cache write —
// a disk-backed store flushes every committed entry before the process
// exits.
// Queued-but-unstarted jobs still run; new submissions get 503.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	close(s.done) // unblock SSE streams before (not after) draining workers
	s.mu.Unlock()
	s.wg.Wait()
	s.sessions.Close()
	// Best-effort: the cache is already durable entry-by-entry; a close
	// error leaves nothing actionable for a draining server.
	s.store.Close()
}

// RouteInfo describes one registered endpoint. Routes() is the single
// source of truth for the v1 surface: Handler builds the mux from it and
// api_doc_test.go cross-checks API.md against it, so a route cannot be
// added without documenting it (or documented without existing).
type RouteInfo struct {
	Method  string `json:"method"`
	Pattern string `json:"pattern"`
	Summary string `json:"summary"`
}

// route pairs a RouteInfo with its handler.
type route struct {
	RouteInfo
	handler http.HandlerFunc
}

// routes is the full endpoint table.
func (s *Server) routes() []route {
	return []route{
		{RouteInfo{"POST", "/v1/jobs", "submit a scenario (inline JSON or library name)"}, s.handleSubmit},
		{RouteInfo{"GET", "/v1/jobs", "list jobs"}, s.handleListJobs},
		{RouteInfo{"GET", "/v1/jobs/{id}", "job status, outcome when done"}, s.handleJob},
		{RouteInfo{"GET", "/v1/jobs/{id}/events", "SSE stream of per-trial progress"}, s.handleEvents},
		{RouteInfo{"GET", "/v1/jobs/{id}/timeline", "streaming in-flight aggregate"}, s.handleTimeline},
		{RouteInfo{"GET", "/v1/jobs/{id}/trials.csv", "per-trial result rows (CSV)"}, s.handleTrialsCSV},
		{RouteInfo{"GET", "/v1/scenarios", "the scenario library, runnable by name"}, s.handleScenarios},
		{RouteInfo{"POST", "/v1/sessions", "register an admission-control session"}, s.handleSessionCreate},
		{RouteInfo{"GET", "/v1/sessions", "list live admission sessions"}, s.handleSessionList},
		{RouteInfo{"GET", "/v1/sessions/{id}", "session snapshot (machines, counters)"}, s.handleSessionGet},
		{RouteInfo{"DELETE", "/v1/sessions/{id}", "close an admission session"}, s.handleSessionDelete},
		{RouteInfo{"POST", "/v1/sessions/{id}/decide", "admission verdict for one arriving task"}, s.handleSessionDecide},
		{RouteInfo{"POST", "/v1/sessions/{id}/decide/batch", "admission verdicts for a batch of arrivals"}, s.handleSessionDecideBatch},
		{RouteInfo{"POST", "/v1/sessions/{id}/complete", "report a finished task"}, s.handleSessionComplete},
		{RouteInfo{"POST", "/v1/sessions/{id}/machines/{machine}/fail", "take a session machine down"}, s.handleSessionMachineFail},
		{RouteInfo{"POST", "/v1/sessions/{id}/machines/{machine}/rejoin", "bring a failed machine back"}, s.handleSessionMachineRejoin},
		{RouteInfo{"GET", "/healthz", "liveness, queue and session snapshot"}, s.handleHealthz},
		{RouteInfo{"GET", "/metrics", "Prometheus text counters"}, s.handleMetrics},
	}
}

// Routes lists every registered endpoint.
func (s *Server) Routes() []RouteInfo {
	rs := s.routes()
	infos := make([]RouteInfo, len(rs))
	for i, r := range rs {
		infos[i] = r.RouteInfo
	}
	return infos
}

// Handler returns the HTTP API. Every /v1 route is wrapped in the tenancy
// middleware (API-key resolution + per-tenant rate limiting); /healthz
// and /metrics stay open so probes and scrapers never get limited out.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range s.routes() {
		h := r.handler
		if strings.HasPrefix(r.Pattern, "/v1/") {
			h = s.withTenant(h)
		}
		mux.HandleFunc(r.Method+" "+r.Pattern, h)
	}
	return mux
}

// SubmitRequest is the POST /v1/jobs body: exactly one of Name (a library
// scenario) or Scenario (an inline scenario document, the same schema
// cmd/hcsim --scenario reads).
type SubmitRequest struct {
	Name     string          `json:"name,omitempty"`
	Scenario json.RawMessage `json:"scenario,omitempty"`
}

// jsonContentType is the Content-Type value of every JSON answer, shared
// so that setting it allocates nothing. Its len equals its cap, so a later
// Header.Add copies it instead of writing into it.
var jsonContentType = []string{"application/json"}

// writeJSON answers v as compact JSON.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// handleSubmit accepts a scenario, answers cache hits from the store, and
// enqueues misses — rejecting with 429 when the queue is full so the
// accept loop never blocks.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	var sc scenario.Scenario
	switch {
	case req.Name != "" && req.Scenario != nil:
		apiError(w, http.StatusBadRequest, CodeInvalidRequest, "give either name or scenario, not both")
		return
	case req.Name != "":
		lib, ok := s.library[req.Name]
		if !ok {
			apiError(w, http.StatusNotFound, CodeNotFound, "unknown scenario %q (see GET /v1/scenarios)", req.Name)
			return
		}
		sc = lib
	case req.Scenario != nil:
		decoded, err := scenario.Decode(req.Scenario)
		if err != nil {
			apiError(w, http.StatusBadRequest, CodeInvalidScenario, "invalid scenario: %v", err)
			return
		}
		sc = decoded
	default:
		apiError(w, http.StatusBadRequest, CodeInvalidRequest, "give a scenario or a library name")
		return
	}
	norm, hash, err := sc.Canonical()
	if err != nil {
		apiError(w, http.StatusBadRequest, CodeInvalidScenario, "invalid scenario: %v", err)
		return
	}

	tn := s.requestTenant(r)
	job, res := s.submit(norm, hash, tn)
	switch res {
	case submitCacheHit:
		writeJSON(w, http.StatusOK, job.status())
	case submitQueued:
		writeJSON(w, http.StatusAccepted, job.status())
	case submitFull:
		w.Header().Set("Retry-After", "1")
		apiError(w, http.StatusTooManyRequests, CodeQueueFull, "job queue full (%d slots); retry later", cap(s.queue))
	case submitInflight:
		w.Header().Set("Retry-After", "1")
		apiError(w, http.StatusTooManyRequests, CodeInflightLimit,
			"tenant %s is at its in-flight job cap (%d); await or finish a job, then retry",
			tn.Name(), tn.Limits().MaxInFlight)
	case submitClosed:
		apiError(w, http.StatusServiceUnavailable, CodeShuttingDown, "server shutting down")
	}
}

// submitResult classifies what happened to a submission.
type submitResult int

const (
	// submitQueued: cache miss, job accepted onto the queue.
	submitQueued submitResult = iota
	// submitCacheHit: answered from the result store; the job is born done.
	submitCacheHit
	// submitFull: queue at capacity, submission shed (job not registered).
	submitFull
	// submitInflight: the submitting tenant is at its in-flight job cap
	// (job not registered).
	submitInflight
	// submitClosed: server shutting down.
	submitClosed
)

// submit is the one submission path under both POST /v1/jobs and the
// programmatic Submit: cache lookup by content hash, per-tenant in-flight
// accounting, then a non-blocking enqueue. The returned job is registered
// (and resolvable by ID) unless the result is submitFull, submitInflight
// or submitClosed.
//
// Cache hits never count against the tenant's in-flight cap — they are
// born done and occupy no queue or worker slot. A miss claims one slot
// before enqueueing and releases it when the job reaches a terminal
// state (or immediately, if the enqueue itself is refused).
func (s *Server) submit(norm scenario.Scenario, hash string, tn *tenant.Tenant) (*Job, submitResult) {
	id := fmt.Sprintf("%sj%06d", s.idPrefix, s.nextID.Add(1))
	job := newJob(id, hash, norm)
	if cached, ok := s.store.Get(hash); ok {
		// The stored Outcome embeds the *first* submitter's normalized
		// scenario; answer with this submission's own labels so the job's
		// top-level scenario name and outcome.scenario never disagree.
		relabeled := *cached
		relabeled.Scenario = norm
		job.complete(&relabeled, true)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, submitClosed
		}
		s.register(job)
		s.mu.Unlock()
		s.metrics.JobsSubmitted.Add(1)
		s.metrics.CacheHits.Add(1)
		s.metrics.JobsDone.Add(1)
		return job, submitCacheHit
	}
	if tn != nil {
		if !tn.TryBeginJob() {
			s.metrics.InflightRejected.Add(1)
			return nil, submitInflight
		}
		job.release = tn.EndJob
	}
	switch s.tryEnqueue(job) {
	case enqueueOK:
		s.metrics.JobsSubmitted.Add(1)
		return job, submitQueued
	case enqueueClosed:
		job.releaseSlot()
		return nil, submitClosed
	default:
		job.releaseSlot()
		s.metrics.JobsRejected.Add(1)
		return nil, submitFull
	}
}

// register makes a job resolvable by ID and listed, in one step so that
// GET /v1/jobs/{id} never answers a job GET /v1/jobs does not list. Caller
// holds s.mu.
func (s *Server) register(job *Job) {
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
}

// lookupJob fetches a job by the {id} path value.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		jobError(w, http.StatusNotFound, CodeNotFound, id, "no job %q", id)
		return nil, false
	}
	return job, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, job.status())
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		st := s.jobs[id].status()
		st.Outcome = nil // keep the listing light; fetch one job for results
		statuses = append(statuses, st)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": statuses})
}

// handleEvents streams a job's progress as Server-Sent Events: the full
// event history replays first, then live events until the job reaches a
// terminal state or the client disconnects. The stream reads the job's
// history by cursor, so a slow reader falls behind but never loses an
// event; each batch of pending events leaves in one flush.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		apiError(w, http.StatusInternalServerError, CodeStreamUnsupported, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	wake, cancel := job.subscribe()
	defer cancel()
	enc := json.NewEncoder(w)
	// Heartbeat: an SSE comment on an otherwise idle stream (a job stuck
	// behind the queue, a long trial with no completions) keeps proxies
	// and load balancers from reaping the connection. Comment lines are
	// invisible to EventSource consumers. The ticker starts on the first
	// wait, so a stream that is complete up front never builds one.
	var heartbeat <-chan time.Time
	for next := 0; ; {
		events := job.eventsFrom(next)
		next += len(events)
		for _, ev := range events {
			io.WriteString(w, "event: "+ev.Type+"\ndata: ")
			if err := enc.Encode(ev); err != nil {
				return
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				return
			}
			if terminal(ev) {
				flusher.Flush()
				return
			}
		}
		if len(events) > 0 {
			flusher.Flush()
		}
		if heartbeat == nil && s.heartbeat > 0 {
			ticker := time.NewTicker(s.heartbeat)
			defer ticker.Stop()
			heartbeat = ticker.C
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case <-heartbeat:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-wake:
		}
	}
}

// handleTimeline serves the job's streaming in-flight aggregate: the
// binned outcome time-series, robustness-so-far and trial-duration
// quantiles. Populated while the job runs, final after it completes;
// queued jobs get an empty-but-valid snapshot.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	st := job.status()
	snap := job.timelineSnapshot()
	if snap == nil {
		// Not started and nothing cached: an empty snapshot that still
		// reports the trial budget.
		snap = timeline.New(st.TrialsTotal).Snapshot()
	}
	writeJSON(w, http.StatusOK, timelineResponse{JobID: st.ID, State: st.State, Timeline: snap})
}

// timelineResponse is the GET /v1/jobs/{id}/timeline body.
type timelineResponse struct {
	JobID    string             `json:"job_id"`
	State    State              `json:"state"`
	Timeline *timeline.Snapshot `json:"timeline"`
}

// handleTrialsCSV serves the per-job CSV artifact: one row per finished
// trial (trace.WriteTrials). Available once the job is done.
func (s *Server) handleTrialsCSV(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	st := job.status()
	if st.State != StateDone {
		jobError(w, http.StatusConflict, CodeNotReady, st.ID, "job %s is %s; trials.csv is available once it is done", st.ID, st.State)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", st.ID+"_trials.csv"))
	if err := trace.WriteTrials(w, st.Outcome.Results); err != nil {
		// Headers are gone; all we can do is cut the stream.
		return
	}
}

// scenarioInfo is one GET /v1/scenarios entry.
type scenarioInfo struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Hash        string `json:"hash"`
	Pattern     string `json:"pattern"`
	Tasks       int    `json:"tasks"`
	Heuristic   string `json:"heuristic"`
	Trials      int    `json:"trials"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": s.libInfos})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"workers":        s.workers,
		"queue_depth":    len(s.queue),
		"queue_capacity": cap(s.queue),
		"cached_results": s.store.Len(),
		"sessions":       s.sessions.Len(),
		"tenants":        s.tenants.Snapshots(),
	}
	if s.shardCnt > 0 {
		body["shard"] = fmt.Sprintf("%d/%d", s.shardIdx, s.shardCnt)
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w, len(s.queue), s.sessions.Len())
}

// ErrClosed reports submission to a closed server (embedding API).
var ErrClosed = errors.New("service: server closed")

// Submit is the programmatic submission path used by embedders and tests:
// it behaves exactly like POST /v1/jobs (normalize, hash, cache lookup,
// bounded enqueue) and returns the job, or ErrClosed / a queue-full error.
func (s *Server) Submit(sc scenario.Scenario) (*Job, error) {
	norm, hash, err := sc.Canonical()
	if err != nil {
		return nil, err
	}
	job, res := s.submit(norm, hash, s.tenants.Anonymous())
	switch res {
	case submitClosed:
		return nil, ErrClosed
	case submitFull:
		return nil, fmt.Errorf("service: job queue full (%d slots)", cap(s.queue))
	case submitInflight:
		return nil, fmt.Errorf("service: anonymous tenant at its in-flight job cap")
	default:
		return job, nil
	}
}

// Status returns a job's status by ID (embedding API).
func (s *Server) Status(id string) (Status, bool) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Status{}, false
	}
	return job.status(), true
}
