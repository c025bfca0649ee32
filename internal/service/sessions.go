package service

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"prunesim/internal/admission"
	"prunesim/internal/scenario"
)

// This file is the HTTP half of the online admission-control surface: it
// lowers /v1/sessions requests onto internal/admission and maps its typed
// errors onto the error envelope. Request clocks are optional — a client
// that omits "now" gets wall-clock seconds since the session was created,
// so real traffic can stream without the caller keeping time.

// SessionRequest is the POST /v1/sessions body. Platform and Prune are the
// same schema halves a scenario document uses; admission defaults the
// heuristic to MCT (immediate-mode) rather than the batch-mode scenario
// default, and only immediate-mode heuristics are accepted.
type SessionRequest struct {
	Platform scenario.Platform `json:"platform"`
	Prune    scenario.Prune    `json:"prune"`
}

// sessionCreated is the POST /v1/sessions response.
type sessionCreated struct {
	SessionID string    `json:"session_id"`
	Machines  int       `json:"machines"`
	TaskTypes int       `json:"task_types"`
	Heuristic string    `json:"heuristic"`
	Created   time.Time `json:"created"`
}

// decideRequest is the POST /v1/sessions/{id}/decide body. Now is optional
// (see above).
type decideRequest struct {
	admission.TaskSpec
	Now *float64 `json:"now,omitempty"`
	now float64  // backs Now when decodeNumbers parses the body
}

// decideBatchRequest is the POST /v1/sessions/{id}/decide/batch body. The
// whole batch shares one clock reading and one mapping-event sweep.
type decideBatchRequest struct {
	Tasks []admission.TaskSpec `json:"tasks"`
	Now   *float64             `json:"now,omitempty"`
}

// completeRequest is the POST /v1/sessions/{id}/complete body.
type completeRequest struct {
	TaskID int      `json:"task_id"`
	Now    *float64 `json:"now,omitempty"`
	now    float64  // backs Now when decodeNumbers parses the body
}

// decideResponse wraps a Decision with its session.
type decideResponse struct {
	SessionID string `json:"session_id"`
	admission.Decision
}

// The number bodies' members, in the order their set methods number them.
var (
	decideMembers   = []numberMember{{"type", true}, {"deadline", false}, {"value", false}, {"now", false}}
	completeMembers = []numberMember{{"task_id", true}, {"now", false}}
)

func (r *decideRequest) members() []numberMember { return decideMembers }

func (r *decideRequest) set(i int, n int64, f float64) {
	switch i {
	case 0:
		r.Type = int(n)
	case 1:
		r.Deadline = f
	case 2:
		r.Value = f
	case 3:
		r.now, r.Now = f, &r.now
	}
}

func (r *completeRequest) members() []numberMember { return completeMembers }

func (r *completeRequest) set(i int, n int64, f float64) {
	if i == 0 {
		r.TaskID = int(n)
	} else {
		r.now, r.Now = f, &r.now
	}
}

// sessionNow resolves a request's optional clock: explicit when given,
// wall-clock seconds since session creation otherwise.
func sessionNow(h *admission.Handle, now *float64) float64 {
	if now != nil {
		return *now
	}
	return time.Since(h.Created).Seconds()
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	p := req.Platform
	if p.Heuristic == "" {
		p.Heuristic = "MCT"
	}
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		apiError(w, http.StatusBadRequest, CodeInvalidSession, "invalid platform: %v", err)
		return
	}
	// The platform is valid, so only the prune spec can fail to lower.
	low, err := s.eng.Lower(p, req.Prune.WithDefaults())
	if err != nil {
		apiError(w, http.StatusBadRequest, CodeInvalidSession, "invalid prune spec: %v", err)
		return
	}
	h, err := s.sessions.Create(admission.Config{
		Matrix:       low.Matrix,
		MachineTypes: low.MachineTypes,
		Heuristic:    p.Heuristic,
		Slots:        p.Slots,
		Prune:        low.Prune,
	})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, admission.ErrTooManySessions) {
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", "1")
		}
		apiError(w, status, CodeInvalidSession, "%v", err)
		return
	}
	s.metrics.SessionsCreated.Add(1)
	writeJSON(w, http.StatusCreated, sessionCreated{
		SessionID: h.ID,
		Machines:  p.Machines,
		TaskTypes: low.Matrix.NumTaskTypes(),
		Heuristic: p.Heuristic,
		Created:   h.Created,
	})
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"sessions": s.sessions.List()})
}

// sessionCall runs op on session id under the session's lock, at the
// request's clock (sessionNow), and answers any error — the registry's or
// op's — through sessionFailure. It reports whether op succeeded; the
// handler then writes its answer. op must copy out the session-owned
// slices it returns with append([]T(nil), s...): the session reuses them
// once the lock is released, and slices.Clone would turn a nil slice into
// an empty one, changing null to [] on the wire.
func sessionCall[T any](s *Server, w http.ResponseWriter, id string, now *float64, task *int,
	op func(sess *admission.Session, now float64) (T, error)) (T, bool) {
	var res T
	err := s.sessions.WithHandle(id, func(h *admission.Handle, sess *admission.Session) error {
		var err error
		res, err = op(sess, sessionNow(h, now))
		return err
	})
	if err != nil {
		sessionFailure(w, id, task, err)
		return res, false
	}
	return res, true
}

// sessionFailure answers a failed call on session id with the error
// envelope: the one place each admission error class meets its status and
// code. task is the request's task ID, named in an unknown-task answer.
func sessionFailure(w http.ResponseWriter, id string, task *int, err error) {
	status, body := http.StatusBadRequest, ErrorBody{Code: CodeInvalidRequest, Message: err.Error(), SessionID: id}
	switch {
	case errors.Is(err, admission.ErrSessionNotFound):
		status, body.Code, body.Message = http.StatusNotFound, CodeNotFound, fmt.Sprintf("no session %q", id)
	case errors.Is(err, admission.ErrSessionExpired):
		status, body.Code, body.Message = http.StatusGone, CodeSessionExpired, fmt.Sprintf("session %q expired or was closed", id)
	case errors.Is(err, admission.ErrUnknownTask):
		status, body.Code, body.TaskID = http.StatusNotFound, CodeInvalidTask, task
	case errors.Is(err, admission.ErrUnknownMachine):
		status = http.StatusNotFound
	}
	writeError(w, status, body)
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := sessionCall(s, w, id, nil, nil, func(sess *admission.Session, _ float64) (admission.Snapshot, error) {
		return sess.Snapshot(), nil
	})
	if ok {
		writeJSON(w, http.StatusOK, struct {
			SessionID string `json:"session_id"`
			admission.Snapshot
		}{id, snap})
	}
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sessions.Delete(id); err != nil {
		sessionFailure(w, id, nil, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"session_id": id, "state": "closed"})
}

// recordDecision feeds one verdict into the service metrics.
func (s *Server) recordDecision(d admission.Decision) {
	s.metrics.Decisions.Add(1)
	switch d.Verdict {
	case admission.VerdictAccept:
		s.metrics.DecisionsAccepted.Add(1)
	case admission.VerdictDefer:
		s.metrics.DecisionsDeferred.Add(1)
	case admission.VerdictDrop:
		s.metrics.DecisionsDropped.Add(1)
	}
}

func (s *Server) handleSessionDecide(w http.ResponseWriter, r *http.Request) {
	var req decideRequest
	if !decodeBody(w, r, &req) {
		return
	}
	id := r.PathValue("id")
	start := time.Now()
	d, ok := sessionCall(s, w, id, req.Now, nil, func(sess *admission.Session, now float64) (admission.Decision, error) {
		d, err := sess.Decide(req.TaskSpec, now)
		d.Evicted = append([]admission.Eviction(nil), d.Evicted...)
		return d, err
	})
	if !ok {
		return
	}
	s.metrics.DecideLatency.Observe(time.Since(start).Seconds())
	s.recordDecision(d)
	writeJSON(w, http.StatusOK, decideResponse{SessionID: id, Decision: d})
}

func (s *Server) handleSessionDecideBatch(w http.ResponseWriter, r *http.Request) {
	var req decideBatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Tasks) == 0 {
		apiError(w, http.StatusBadRequest, CodeInvalidRequest, "tasks must be non-empty")
		return
	}
	id := r.PathValue("id")
	start := time.Now()
	ds, ok := sessionCall(s, w, id, req.Now, nil, func(sess *admission.Session, now float64) ([]admission.Decision, error) {
		ds, err := sess.DecideBatch(req.Tasks, now)
		for i := range ds {
			ds[i].Evicted = append([]admission.Eviction(nil), ds[i].Evicted...)
		}
		return ds, err
	})
	if !ok {
		return
	}
	s.metrics.DecideLatency.Observe(time.Since(start).Seconds())
	for _, d := range ds {
		s.recordDecision(d)
	}
	writeJSON(w, http.StatusOK, map[string]any{"session_id": id, "decisions": ds})
}

func (s *Server) handleSessionComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	id := r.PathValue("id")
	c, ok := sessionCall(s, w, id, req.Now, &req.TaskID, func(sess *admission.Session, now float64) (admission.Completion, error) {
		c, err := sess.Complete(req.TaskID, now)
		c.Started = append([]int(nil), c.Started...)
		c.Evicted = append([]admission.Eviction(nil), c.Evicted...)
		return c, err
	})
	if !ok {
		return
	}
	s.metrics.Completions.Add(1)
	if c.Stale {
		s.metrics.StaleCompletions.Add(1)
	}
	writeJSON(w, http.StatusOK, struct {
		SessionID string `json:"session_id"`
		admission.Completion
	}{id, c})
}

// machineEventRequest is the body of fail (optional, for "now").
type machineEventRequest struct {
	Now *float64 `json:"now,omitempty"`
}

// sessionMachine parses the {machine} path value, answering a malformed
// index with the envelope.
func sessionMachine(w http.ResponseWriter, r *http.Request) (id string, j int, ok bool) {
	id = r.PathValue("id")
	j, err := strconv.Atoi(r.PathValue("machine"))
	if err != nil {
		sessionFailure(w, id, nil, fmt.Errorf("machine must be an integer index: %w", err))
		return id, 0, false
	}
	return id, j, true
}

func (s *Server) handleSessionMachineFail(w http.ResponseWriter, r *http.Request) {
	id, j, ok := sessionMachine(w, r)
	if !ok {
		return
	}
	var req machineEventRequest
	if r.ContentLength != 0 && !decodeBody(w, r, &req) {
		return
	}
	orphans, ok := sessionCall(s, w, id, req.Now, nil, func(sess *admission.Session, now float64) ([]admission.Eviction, error) {
		evs, err := sess.FailMachine(j, now)
		return append([]admission.Eviction(nil), evs...), err
	})
	if ok {
		writeJSON(w, http.StatusOK, map[string]any{"session_id": id, "machine": j, "state": "down", "orphaned": orphans})
	}
}

func (s *Server) handleSessionMachineRejoin(w http.ResponseWriter, r *http.Request) {
	id, j, ok := sessionMachine(w, r)
	if !ok {
		return
	}
	_, ok = sessionCall(s, w, id, nil, nil, func(sess *admission.Session, _ float64) (struct{}, error) {
		return struct{}{}, sess.RejoinMachine(j)
	})
	if ok {
		writeJSON(w, http.StatusOK, map[string]any{"session_id": id, "machine": j, "state": "up"})
	}
}

// Sessions exposes the admission registry (embedders and tests).
func (s *Server) Sessions() *admission.Registry { return s.sessions }
