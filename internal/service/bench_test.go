package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
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
