package service

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Error codes: the stable, machine-readable half of every error response.
// Clients branch on these; messages are for humans and may change freely.
const (
	// CodeInvalidRequest: the request body or parameters are malformed.
	CodeInvalidRequest = "invalid_request"
	// CodeInvalidScenario: the submitted scenario document failed parsing,
	// normalization or validation.
	CodeInvalidScenario = "invalid_scenario"
	// CodeInvalidSession: the session registration is invalid (bad platform
	// or prune spec, batch-mode heuristic, session cap reached).
	CodeInvalidSession = "invalid_session"
	// CodeInvalidTask: a decide/complete request names a task or machine
	// the session has no live record of.
	CodeInvalidTask = "invalid_task"
	// CodeNotFound: no such job, session, scenario or route.
	CodeNotFound = "not_found"
	// CodeSessionExpired: the session existed but was expired by the idle
	// TTL or explicitly deleted (HTTP 410).
	CodeSessionExpired = "session_expired"
	// CodeQueueFull: the job queue is at capacity — the service-wide
	// backpressure limit, independent of any per-tenant limit; retry after
	// the Retry-After header (HTTP 429).
	CodeQueueFull = "queue_full"
	// CodeRateLimited: the caller's per-tenant token bucket is empty;
	// retry after the Retry-After header (HTTP 429). Distinct from
	// CodeQueueFull so clients can tell which limit fired.
	CodeRateLimited = "rate_limited"
	// CodeInflightLimit: the caller is at its per-tenant cap of
	// concurrently live jobs; finish or await one, then retry (HTTP 429).
	CodeInflightLimit = "inflight_limit"
	// CodeUnauthorized: the request presented an API key the keyfile does
	// not know (HTTP 401). Anonymous requests are never unauthorized —
	// they resolve to the anonymous tenant.
	CodeUnauthorized = "unauthorized"
	// CodeShuttingDown: the server is draining (HTTP 503).
	CodeShuttingDown = "shutting_down"
	// CodeNotReady: the resource exists but is not in a state that can
	// serve the request yet (e.g. trials.csv before the job is done).
	CodeNotReady = "not_ready"
	// CodeStreamUnsupported: the connection cannot carry an SSE stream.
	CodeStreamUnsupported = "stream_unsupported"
)

// ErrorBody is the payload inside the uniform error envelope
// {"error": {...}} every /v1 endpoint answers failures with.
type ErrorBody struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is a human-readable description.
	Message string `json:"message"`
	// JobID / SessionID / TaskID identify the resource the error is about,
	// when there is one.
	JobID     string `json:"job_id,omitempty"`
	SessionID string `json:"session_id,omitempty"`
	TaskID    *int   `json:"task_id,omitempty"`
}

// errorEnvelope is the wire shape of an error response.
type errorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// writeError writes the envelope with the given HTTP status.
func writeError(w http.ResponseWriter, status int, body ErrorBody) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorEnvelope{Error: body})
}

// apiError writes a plain coded error (no resource IDs).
func apiError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeError(w, status, ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)})
}

// jobError writes a coded error about a specific job.
func jobError(w http.ResponseWriter, status int, code, jobID, format string, args ...any) {
	writeError(w, status, ErrorBody{Code: code, Message: fmt.Sprintf(format, args...), JobID: jobID})
}
