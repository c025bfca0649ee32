package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	scenarios "prunesim/examples/scenarios"
)

// memWriter is a ResponseWriter that keeps the answer in memory and can be
// reused.
type memWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (m *memWriter) Header() http.Header         { return m.header }
func (m *memWriter) WriteHeader(code int)        { m.code = code }
func (m *memWriter) Write(p []byte) (int, error) { return m.body.Write(p) }

func (m *memWriter) reset() {
	m.code = 0
	m.body.Reset()
}

// BenchmarkSessionDecide is one decide and the complete of its task, with
// explicit now, through Server.Handler() in memory: the service's share of
// an admission round trip (routing, tenant check, body decoding, session
// lock, answer encoding) without the network. Every task is accepted and
// starts at once, so the session's state stays the same size.
func BenchmarkSessionDecide(b *testing.B) {
	srv := New(Config{Workers: -1, SessionTTL: -1})
	defer srv.Close()
	h := srv.Handler()
	w := &memWriter{header: http.Header{}}
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/sessions",
		strings.NewReader(`{"platform": {"heuristic": "MCT"}, "prune": {"enabled": true}}`)))
	var created struct {
		SessionID string `json:"session_id"`
	}
	if err := json.Unmarshal(w.body.Bytes(), &created); w.code != http.StatusCreated || err != nil {
		b.Fatalf("create session: status %d: %s", w.code, w.body.Bytes())
	}
	base := "/v1/sessions/" + created.SessionID

	var decideBody, completeBody rereader
	decide := httptest.NewRequest("POST", base+"/decide", nil)
	decide.Body = &decideBody
	complete := httptest.NewRequest("POST", base+"/complete", nil)
	complete.Body = &completeBody
	var buf []byte
	// pair decides task id at time id and completes it half a time unit
	// later; the session numbers its tasks from 0.
	pair := func(id int) {
		now := float64(id)
		buf = append(buf[:0], `{"type":`...)
		buf = strconv.AppendInt(buf, int64(id%12), 10)
		buf = append(buf, `,"deadline":`...)
		buf = strconv.AppendFloat(buf, now+1000, 'g', -1, 64)
		buf = append(buf, `,"now":`...)
		buf = strconv.AppendFloat(buf, now, 'g', -1, 64)
		buf = append(buf, "}\n"...)
		decideBody.Reset(buf)
		w.reset()
		h.ServeHTTP(w, decide)
		if w.code != http.StatusOK {
			b.Fatalf("decide: status %d: %s", w.code, w.body.Bytes())
		}
		buf = append(buf[:0], `{"task_id":`...)
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, `,"now":`...)
		buf = strconv.AppendFloat(buf, now+0.5, 'g', -1, 64)
		buf = append(buf, "}\n"...)
		completeBody.Reset(buf)
		w.reset()
		h.ServeHTTP(w, complete)
		if w.code != http.StatusOK {
			b.Fatalf("complete: status %d: %s", w.code, w.body.Bytes())
		}
	}
	const warm = 100
	for id := 0; id < warm; id++ {
		pair(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair(warm + i)
	}
}

// benchSessionCreate runs one POST /v1/sessions with body(i) and the
// DELETE that closes the session per op, through Server.Handler() in
// memory, so the live session count stays at zero.
func benchSessionCreate(b *testing.B, body func(i int) []byte) {
	srv := New(Config{Workers: -1, SessionTTL: -1})
	defer srv.Close()
	h := srv.Handler()
	w := &memWriter{header: http.Header{}}
	var createBody rereader
	create := httptest.NewRequest("POST", "/v1/sessions", nil)
	create.Body = &createBody
	idKey := []byte(`"session_id":"`)
	op := func(i int) {
		createBody.Reset(body(i))
		w.reset()
		h.ServeHTTP(w, create)
		out := w.body.Bytes()
		at := bytes.Index(out, idKey)
		if w.code != http.StatusCreated || at < 0 {
			b.Fatalf("create session: status %d: %s", w.code, out)
		}
		id := out[at+len(idKey):]
		id = id[:bytes.IndexByte(id, '"')]
		w.reset()
		h.ServeHTTP(w, httptest.NewRequest("DELETE", "/v1/sessions/"+string(id), nil))
		if w.code != http.StatusOK {
			b.Fatalf("delete session: status %d: %s", w.code, w.body.Bytes())
		}
	}
	op(-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// BenchmarkSessionCreate creates and closes a session for a platform spec
// the server has lowered before (the paper's default platform, MCT,
// pruning on). The PET matrix comes from the engine's cache, so the op is
// decoding, validation, the session's machines and pruner, and the two
// answers.
func BenchmarkSessionCreate(b *testing.B) {
	body := []byte(`{"platform": {"heuristic": "MCT"}, "prune": {"enabled": true}}`)
	benchSessionCreate(b, func(int) []byte { return body })
}

// BenchmarkSessionCreateCold is BenchmarkSessionCreate with a new PET seed
// per op, so every create builds its matrix at the default spec (500
// samples per cell): the cost a cache hit saves.
func BenchmarkSessionCreateCold(b *testing.B) {
	var buf []byte
	benchSessionCreate(b, func(i int) []byte {
		buf = append(buf[:0], `{"platform": {"heuristic": "MCT", "pet": {"seed": `...)
		buf = strconv.AppendInt(buf, int64(i)+2, 10)
		return append(buf, `}}, "prune": {"enabled": true}}`...)
	})
}

// BenchmarkSubmitHit is one inline service_smoke submission answered from
// the result store, through Server.Handler() in memory: decoding the body
// and the scenario, one Normalize, the content hash, the tenant check, the
// store lookup and the 200 answer. The engine never runs.
func BenchmarkSubmitHit(b *testing.B) {
	lib, err := scenarios.Library()
	if err != nil {
		b.Fatal(err)
	}
	var body []byte
	for _, sc := range lib {
		if sc.Name == "service_smoke" {
			raw, err := json.Marshal(sc)
			if err == nil {
				body, err = json.Marshal(SubmitRequest{Scenario: raw})
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	if body == nil {
		b.Fatal("service_smoke not in the embedded library")
	}
	srv := New(Config{Workers: 1})
	defer srv.Close()
	h := srv.Handler()
	w := &memWriter{header: http.Header{}}
	var submitBody rereader
	submit := httptest.NewRequest("POST", "/v1/jobs", nil)
	submit.Body = &submitBody
	post := func() {
		submitBody.Reset(body)
		w.reset()
		h.ServeHTTP(w, submit)
	}
	post()
	var st Status
	if err := json.Unmarshal(w.body.Bytes(), &st); w.code != http.StatusAccepted || err != nil {
		b.Fatalf("first submit: status %d: %s", w.code, w.body.Bytes())
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if st, _ = srv.Status(st.ID); st.State == StateDone {
			break
		}
		if st.State == StateFailed || time.Now().After(deadline) {
			b.Fatalf("first job did not finish: %+v", st)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
		if w.code != http.StatusOK {
			b.Fatalf("resubmit: status %d: %s", w.code, w.body.Bytes())
		}
	}
}
