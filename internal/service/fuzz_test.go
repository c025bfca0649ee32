package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"prunesim/internal/service"
)

// envelopeCodes is every error code errors.go defines.
var envelopeCodes = map[string]bool{
	service.CodeInvalidRequest: true, service.CodeInvalidScenario: true,
	service.CodeInvalidSession: true, service.CodeInvalidTask: true,
	service.CodeNotFound: true, service.CodeSessionExpired: true,
	service.CodeQueueFull: true, service.CodeRateLimited: true,
	service.CodeInflightLimit: true, service.CodeUnauthorized: true,
	service.CodeShuttingDown: true, service.CodeNotReady: true,
	service.CodeStreamUnsupported: true,
}

// Session request kinds a fuzz program picks from.
const (
	reqDecide = iota
	reqBatch
	reqComplete
	reqFail
	reqRejoin
	reqGet
	reqRaw
	numReqKinds
)

// fuzzProgram reads a fuzz input one byte at a time; an exhausted program
// reads zeros.
type fuzzProgram []byte

func (p *fuzzProgram) next() byte {
	if len(*p) == 0 {
		return 0
	}
	b := (*p)[0]
	*p = (*p)[1:]
	return b
}

// now renders an optional "now" member: a quarter-unit clock reading,
// negative values included, or nothing (the wall clock) for 0xff.
func (p *fuzzProgram) now() string {
	b := p.next()
	if b == 0xff {
		return ""
	}
	return fmt.Sprintf(`, "now": %g`, float64(int8(b))/4)
}

// task renders one TaskSpec: types run two past each end of the matrix,
// deadlines and values may be negative.
func (p *fuzzProgram) task() string {
	typ := int(p.next()%16) - 2
	deadline := float64(int8(p.next())) / 2
	spec := fmt.Sprintf(`{"type": %d, "deadline": %g`, typ, deadline)
	if v := p.next(); v&0x80 != 0 {
		spec += fmt.Sprintf(`, "value": %g`, float64(int8(v))/8)
	}
	return spec + "}"
}

// serveChecked sends one request through handler and returns its status
// and body, failing t unless the answer is a 2xx JSON object or the error
// envelope with a code from errors.go.
func serveChecked(t *testing.T, handler http.Handler, method, path string, body []byte) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	out := rec.Body.Bytes()
	if rec.Code >= 200 && rec.Code < 300 {
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(out, &obj); err != nil {
			t.Fatalf("%s %s %q: status %d with a body that is no JSON object: %q", method, path, body, rec.Code, out)
		}
		return rec.Code, out
	}
	var env struct {
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(out, &env); err != nil || env.Error == nil ||
		!envelopeCodes[env.Error.Code] || env.Error.Message == "" {
		t.Fatalf("%s %s %q: status %d without a valid error envelope: %q", method, path, body, rec.Code, out)
	}
	return rec.Code, out
}

// FuzzSessionRequests drives one admission session through the v1 handler
// with fuzzed sequences of decide, decide/batch, complete, fail, rejoin and
// get requests, plus raw request bodies. Every answer must be a 2xx JSON
// object or the error envelope with a code from errors.go, and no request
// may panic the handler.
func FuzzSessionRequests(f *testing.F) {
	const maxRequests = 48
	srv := service.New(service.Config{Workers: -1, SessionTTL: -1})
	f.Cleanup(srv.Close)
	handler := srv.Handler()

	f.Add([]byte{reqDecide, 4, 0, 40, 0, reqComplete, 1, 0, 8, reqGet}, []byte(`{"type": 0, "deadline": 5}`))
	f.Add([]byte{reqBatch, 3, 0, 1, 30, 0, 2, 60, 0, 3, 90, 0, reqFail, 1, 0, 20, reqComplete, 1, 0, 24,
		reqRejoin, 1, reqDecide, 5, 1, 50, 0x90, 28}, []byte(`{"tasks": [{"type": 1, "deadline": 9}]}`))
	f.Add([]byte{reqRaw, 0, reqRaw, 1, reqRaw, 2, reqRaw, 3}, []byte(`{"task_id": 0} trailing`))
	f.Add([]byte{reqFail, 0, 0xff, reqFail, 0, 4, reqRejoin, 0, reqRejoin, 0, reqBatch, 0, 0},
		[]byte(`{"type": 0, "deadline": 1e999}`))

	f.Fuzz(func(t *testing.T, prog []byte, raw []byte) {
		serve := func(method, path string, body []byte) (int, []byte) {
			return serveChecked(t, handler, method, path, body)
		}

		code, out := serve("POST", "/v1/sessions", []byte(
			`{"platform": {"machines": 3, "heuristic": "MCT", "slots": 2, "pet": {"samples": 50}}, "prune": {"enabled": true}}`))
		var created struct {
			SessionID string `json:"session_id"`
		}
		if err := json.Unmarshal(out, &created); code != http.StatusCreated || err != nil {
			t.Fatalf("create session: status %d: %s", code, out)
		}
		base := "/v1/sessions/" + created.SessionID
		defer serve("DELETE", base, nil)

		var ids []int // task IDs the session has handed out
		record := func(out []byte) {
			var d struct {
				TaskID    *int `json:"task_id"`
				Decisions []struct {
					TaskID int `json:"task_id"`
				} `json:"decisions"`
			}
			if err := json.Unmarshal(out, &d); err != nil {
				t.Fatalf("decision answer %q: %v", out, err)
			}
			if d.TaskID != nil {
				ids = append(ids, *d.TaskID)
			}
			for _, x := range d.Decisions {
				ids = append(ids, x.TaskID)
			}
		}
		p := fuzzProgram(prog)
		for n := 0; n < maxRequests && len(p) > 0; n++ {
			switch p.next() % numReqKinds {
			case reqDecide:
				body := p.task()
				body = body[:len(body)-1] + p.now() + "}" // "now" joins the spec's object
				if code, out := serve("POST", base+"/decide", []byte(body)); code == http.StatusOK {
					record(out)
				}
			case reqBatch:
				tasks := make([]string, p.next()%4)
				for i := range tasks {
					tasks[i] = p.task()
				}
				body := `{"tasks": [` + strings.Join(tasks, ", ") + "]" + p.now() + "}"
				if code, out := serve("POST", base+"/decide/batch", []byte(body)); code == http.StatusOK {
					record(out)
				}
			case reqComplete:
				id := int(int8(p.next()))
				if k := p.next(); k&1 == 0 && len(ids) > 0 {
					id = ids[int(k/2)%len(ids)]
				}
				serve("POST", base+"/complete", []byte(fmt.Sprintf(`{"task_id": %d%s}`, id, p.now())))
			case reqFail:
				m := strconv.Itoa(int(p.next()%6) - 1)
				var body []byte
				if now := p.now(); now != "" {
					body = []byte("{" + now[2:] + "}")
				}
				serve("POST", base+"/machines/"+m+"/fail", body)
			case reqRejoin:
				serve("POST", base+"/machines/"+strconv.Itoa(int(p.next()%6)-1)+"/rejoin", nil)
			case reqGet:
				serve("GET", base, nil)
			case reqRaw:
				paths := [...]string{"/decide", "/decide/batch", "/complete", "/machines/0/fail", "/machines/0/rejoin"}
				serve("POST", base+paths[int(p.next())%len(paths)], raw)
			}
		}
	})
}

// FuzzSessionCreate posts fuzzed POST /v1/sessions bodies. Every body must
// be answered with 201 and a session ID, or with the error envelope; no
// body may panic the handler, and however many distinct platform specs the
// bodies name, the engine's PET-matrix cache stays within its caps. Each
// created session is deleted at once, so the session cap never answers
// for the body.
func FuzzSessionCreate(f *testing.F) {
	srv := service.New(service.Config{Workers: -1, SessionTTL: -1})
	f.Cleanup(srv.Close)
	handler := srv.Handler()

	for _, body := range []string{
		`{}`,
		`{"platform": {"heuristic": "MCT"}, "prune": {"enabled": true}}`,
		`{"platform": {"machines": 3, "heuristic": "KPB", "slots": 2, "pet": {"samples": 50, "seed": 7}}, "prune": {"enabled": true, "toggle": "always"}}`,
		`{"platform": {"profile": "homogeneous", "machines": 4, "pet": {"samples": 20, "bin_width": 0.25, "shape_lo": 2, "shape_hi": 4}}}`,
		`{"platform": {"heuristic": "MM"}}`,
		`{"platform": {"machines": 0, "pet": {"samples": -1}}}`,
		`{"platform": {"pet": {"bin_width": 0.001}}}`,
		`{"prune": {"toggle": "bogus"}}`,
		`{"platform": {"mode": "batch"}}`,
		`{"platform": {"pct_tail_eps": 1}}`,
		`{"platform": {}, "bogus": 1}`,
		`{"platform": {}} trailing`,
		`null`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		code, out := serveChecked(t, handler, "POST", "/v1/sessions", body)
		if code >= 200 && code < 300 {
			var created struct {
				SessionID string `json:"session_id"`
			}
			if err := json.Unmarshal(out, &created); code != http.StatusCreated || err != nil || created.SessionID == "" {
				t.Fatalf("%q: status %d without a session: %s", body, code, out)
			}
			if code, out := serveChecked(t, handler, "DELETE", "/v1/sessions/"+created.SessionID, nil); code != http.StatusOK {
				t.Fatalf("delete %s: status %d: %s", created.SessionID, code, out)
			}
		}
		if st := srv.Engine().MatrixCacheStats(); st.Entries > st.MaxEntries || st.Bytes > st.MaxBytes {
			t.Fatalf("%q: matrix cache past its caps: %+v", body, st)
		}
	})
}
