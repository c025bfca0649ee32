package service_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"prunesim/internal/service"
)

// TestErrorEnvelopeContract exercises the failure path of every /v1
// endpoint and asserts the one unified envelope:
//
//	{"error": {"code": "...", "message": "...", ...}}
//
// with a stable machine-readable code. Any endpoint that grows a new error
// path must speak this envelope or fail here.
func TestErrorEnvelopeContract(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: -1})
	live := createSession(t, ts, "")
	// A closed session distinguishes 410 session_expired from 404.
	gone := createSession(t, ts, "")
	if code, raw := doJSON(t, ts, "DELETE", "/v1/sessions/"+gone, "", nil); code != http.StatusOK {
		t.Fatalf("closing session: %d %s", code, raw)
	}
	// A session with machine 0 already down, for the repeated-fail case.
	downed := createSession(t, ts, "")
	if code, raw := doJSON(t, ts, "POST", "/v1/sessions/"+downed+"/machines/0/fail", "", nil); code != http.StatusOK {
		t.Fatalf("failing machine: %d %s", code, raw)
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"jobs malformed JSON", "POST", "/v1/jobs", `{`, 400, "invalid_request"},
		{"jobs unknown name", "POST", "/v1/jobs", `{"name": "nope"}`, 404, "not_found"},
		{"jobs invalid scenario", "POST", "/v1/jobs",
			`{"scenario": {"workload": {"tasks": -5}, "platform": {}, "prune": {}, "run": {}}}`, 400, "invalid_scenario"},
		{"job status unknown", "GET", "/v1/jobs/zzz", "", 404, "not_found"},
		{"job events unknown", "GET", "/v1/jobs/zzz/events", "", 404, "not_found"},
		{"job timeline unknown", "GET", "/v1/jobs/zzz/timeline", "", 404, "not_found"},
		{"job csv unknown", "GET", "/v1/jobs/zzz/trials.csv", "", 404, "not_found"},
		{"session malformed JSON", "POST", "/v1/sessions", `{`, 400, "invalid_request"},
		{"session bad heuristic", "POST", "/v1/sessions",
			`{"platform": {"heuristic": "NOPE"}, "prune": {}}`, 400, "invalid_session"},
		{"session batch heuristic", "POST", "/v1/sessions",
			`{"platform": {"heuristic": "MM"}, "prune": {}}`, 400, "invalid_session"},
		// Platform specs that panicked while building the PET matrix or
		// the machine list before session creation validated them.
		{"session shape_lo above default shape_hi", "POST", "/v1/sessions",
			`{"platform": {"pet": {"shape_lo": 50}}}`, 400, "invalid_session"},
		{"session shape_hi below default shape_lo", "POST", "/v1/sessions",
			`{"platform": {"pet": {"shape_hi": 0.5}}}`, 400, "invalid_session"},
		{"session negative machines", "POST", "/v1/sessions",
			`{"platform": {"machines": -1}}`, 400, "invalid_session"},
		// Platform specs that would allocate without bound before anything
		// else could refuse them.
		{"session too many machines", "POST", "/v1/sessions",
			`{"platform": {"machines": 1000000000}}`, 400, "invalid_session"},
		{"session too many PET samples", "POST", "/v1/sessions",
			`{"platform": {"pet": {"samples": 1000000000}}}`, 400, "invalid_session"},
		{"session PET bin width too small", "POST", "/v1/sessions",
			`{"platform": {"pet": {"bin_width": 1e-9}}}`, 400, "invalid_session"},
		{"jobs too many machines", "POST", "/v1/jobs",
			`{"scenario": {"workload": {"tasks": 100}, "platform": {"machines": 1000000000}}}`, 400, "invalid_scenario"},
		{"jobs capacity joins past the machine bound", "POST", "/v1/jobs",
			`{"scenario": {"workload": {"tasks": 100}, "events": [` +
				`{"at": 100, "action": "join", "count": 4611686018427387904},` +
				`{"at": 200, "action": "join", "count": 4611686018427387904}]}}`, 400, "invalid_scenario"},
		{"session get unknown", "GET", "/v1/sessions/zzz", "", 404, "not_found"},
		{"session get expired", "GET", "/v1/sessions/" + gone, "", 410, "session_expired"},
		{"session delete unknown", "DELETE", "/v1/sessions/zzz", "", 404, "not_found"},
		{"decide unknown session", "POST", "/v1/sessions/zzz/decide",
			`{"type": 0, "deadline": 5}`, 404, "not_found"},
		{"decide expired session", "POST", "/v1/sessions/" + gone + "/decide",
			`{"type": 0, "deadline": 5}`, 410, "session_expired"},
		{"decide malformed JSON", "POST", "/v1/sessions/" + live + "/decide", `{`, 400, "invalid_request"},
		{"decide unknown field", "POST", "/v1/sessions/" + live + "/decide",
			`{"type": 0, "deadline": 5, "bogus": 1}`, 400, "invalid_request"},
		{"decide bad task type", "POST", "/v1/sessions/" + live + "/decide",
			`{"type": 999, "deadline": 5}`, 400, "invalid_request"},
		{"decide non-finite now", "POST", "/v1/sessions/" + live + "/decide",
			`{"type": 0, "deadline": 5, "now": 1e999}`, 400, "invalid_request"},
		{"batch empty", "POST", "/v1/sessions/" + live + "/decide/batch", `{"tasks": []}`, 400, "invalid_request"},
		{"batch unknown session", "POST", "/v1/sessions/zzz/decide/batch",
			`{"tasks": [{"type": 0, "deadline": 5}]}`, 404, "not_found"},
		{"complete unknown task", "POST", "/v1/sessions/" + live + "/complete",
			`{"task_id": 424242}`, 404, "invalid_task"},
		{"complete unknown session", "POST", "/v1/sessions/zzz/complete",
			`{"task_id": 0}`, 404, "not_found"},
		{"machine index not a number", "POST", "/v1/sessions/" + live + "/machines/abc/fail", "", 400, "invalid_request"},
		{"machine index out of range", "POST", "/v1/sessions/" + live + "/machines/99/fail", "", 404, "invalid_request"},
		{"rejoin out of range", "POST", "/v1/sessions/" + live + "/machines/99/rejoin", "", 404, "invalid_request"},
		{"fail machine already down", "POST", "/v1/sessions/" + downed + "/machines/0/fail", "", 400, "invalid_request"},
		{"rejoin machine that is up", "POST", "/v1/sessions/" + live + "/machines/0/rejoin", "", 400, "invalid_request"},
		{"rejoin index not a number", "POST", "/v1/sessions/" + live + "/machines/abc/rejoin", "", 400, "invalid_request"},
		{"complete expired session", "POST", "/v1/sessions/" + gone + "/complete",
			`{"task_id": 0}`, 410, "session_expired"},
		{"fail expired session", "POST", "/v1/sessions/" + gone + "/machines/0/fail", "", 410, "session_expired"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, raw := doJSON(t, ts, c.method, c.path, c.body, nil)
			if code != c.wantStatus {
				t.Fatalf("status %d, want %d: %s", code, c.wantStatus, raw)
			}
			var env struct {
				Error *struct {
					Code      string `json:"code"`
					Message   string `json:"message"`
					JobID     string `json:"job_id"`
					SessionID string `json:"session_id"`
					TaskID    *int   `json:"task_id"`
				} `json:"error"`
			}
			if err := json.Unmarshal([]byte(raw), &env); err != nil || env.Error == nil {
				t.Fatalf("not an error envelope: %s (err %v)", raw, err)
			}
			if env.Error.Code != c.wantCode {
				t.Fatalf("code %q, want %q: %s", env.Error.Code, c.wantCode, raw)
			}
			if env.Error.Message == "" {
				t.Fatalf("empty message: %s", raw)
			}
			// An unknown-task answer names the task it is about.
			if c.wantCode == "invalid_task" && env.Error.TaskID == nil {
				t.Fatalf("task_id missing from envelope: %s", raw)
			}
		})
	}

	// The envelope carries identifiers when it has them: an unknown-task
	// completion names both the session and the task.
	code, raw := doJSON(t, ts, "POST", "/v1/sessions/"+live+"/complete", `{"task_id": 7}`, nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown task: %d %s", code, raw)
	}
	var env struct {
		Error struct {
			SessionID string `json:"session_id"`
			TaskID    *int   `json:"task_id"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(raw), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.SessionID != live || env.Error.TaskID == nil || *env.Error.TaskID != 7 {
		t.Fatalf("identifiers missing from envelope: %s", raw)
	}
}

// TestTrailingDataRejected: a v1 body must be exactly one JSON value. A
// decoder that stops after the first value would accept the junk behind
// it, and a front door that rejects such a body would route it to a shard
// that does not own its hash.
func TestTrailingDataRejected(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: -1})
	live := createSession(t, ts, "")
	cases := []struct{ name, path, body string }{
		{"jobs", "/v1/jobs", `{"name":"service_smoke"} trailing junk`},
		{"sessions", "/v1/sessions", `{} {"bogus":1}`},
		{"decide", "/v1/sessions/" + live + "/decide", `{"type": 0, "deadline": 5, "now": 0} {}`},
		{"decide/batch", "/v1/sessions/" + live + "/decide/batch", `{"tasks": [{"type": 0, "deadline": 5}], "now": 0}]`},
		{"complete", "/v1/sessions/" + live + "/complete", `{"task_id": 0} 1`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, raw := doJSON(t, ts, "POST", c.path, c.body, nil)
			var env struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			json.Unmarshal([]byte(raw), &env)
			if code != http.StatusBadRequest || env.Error.Code != service.CodeInvalidRequest {
				t.Fatalf("status %d code %q, want 400 %q: %s", code, env.Error.Code, service.CodeInvalidRequest, raw)
			}
		})
	}
	// Trailing whitespace is not data.
	if code, raw := doJSON(t, ts, "POST", "/v1/sessions/"+live+"/decide", "{\"type\": 0, \"deadline\": 5, \"now\": 0}\n\t ", nil); code != http.StatusOK {
		t.Fatalf("decide with trailing whitespace: status %d: %s", code, raw)
	}
}
