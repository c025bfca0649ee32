package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"prunesim/internal/scenario"
)

// gatedWriter is an SSE ResponseWriter that counts flushes and holds each
// one until gate is closed, standing in for a client that stops reading.
type gatedWriter struct {
	header  http.Header
	body    bytes.Buffer
	flushes int
	entered chan struct{} // signalled when a flush starts waiting
	gate    chan struct{}
}

func newGatedWriter() *gatedWriter {
	return &gatedWriter{header: http.Header{}, entered: make(chan struct{}, 1), gate: make(chan struct{})}
}

func (g *gatedWriter) Header() http.Header         { return g.header }
func (g *gatedWriter) WriteHeader(int)             {}
func (g *gatedWriter) Write(p []byte) (int, error) { return g.body.Write(p) }
func (g *gatedWriter) Flush() {
	g.flushes++
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
}

// streamJob registers j on a workerless server and serves its events to
// w on a new goroutine, returning a channel closed when the stream ends.
func streamJob(t *testing.T, j *Job, w *gatedWriter) <-chan struct{} {
	t.Helper()
	s := New(Config{Workers: -1, HeartbeatInterval: -1})
	t.Cleanup(s.Close)
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	r := httptest.NewRequest("GET", "/v1/jobs/"+j.id+"/events", nil)
	r.SetPathValue("id", j.id)
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		s.handleEvents(w, r)
	}()
	return ended
}

// streamEvents decodes the data lines of an SSE body.
func streamEvents(t *testing.T, body []byte) []Event {
	t.Helper()
	var evs []Event
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", data, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestStreamSlowReaderLosesNothing: a reader stalled on its first flush
// while the job publishes 2,000 progress events still receives every one
// of them, in order, and then done.
func TestStreamSlowReaderLosesNothing(t *testing.T) {
	const n = 2000
	j := newJob("j1", "h", scenario.Scenario{})
	w := newGatedWriter()
	ended := streamJob(t, j, w)
	<-w.entered // the reader has sent queued and stopped reading
	for i := 0; i < n; i++ {
		j.publish(Event{Type: "progress", Trial: &scenario.TrialProgress{Trial: i, Total: n}})
	}
	j.complete(&scenario.Outcome{}, false)
	close(w.gate)
	<-ended

	evs := streamEvents(t, w.body.Bytes())
	if len(evs) != n+2 {
		t.Fatalf("stream carried %d events, want %d (queued + %d progress + done)", len(evs), n+2, n)
	}
	for i, ev := range evs[1 : n+1] {
		if ev.Type != "progress" || ev.Trial == nil || ev.Trial.Trial != i {
			t.Fatalf("event %d is %+v, want progress for trial %d", i+1, ev, i)
		}
	}
	if evs[0].Type != "queued" || evs[n+1].Type != "done" {
		t.Fatalf("stream runs %s..%s, want queued..done", evs[0].Type, evs[n+1].Type)
	}
}

// TestStreamDoneJobFlushesOnce: a job that is already done, as a cache hit
// is born, replays its whole history in a single flush.
func TestStreamDoneJobFlushesOnce(t *testing.T) {
	j := newJob("j1", "h", scenario.Scenario{})
	j.complete(&scenario.Outcome{}, true)
	w := newGatedWriter()
	close(w.gate)
	<-streamJob(t, j, w)

	if w.flushes != 1 {
		t.Fatalf("done job's stream flushed %d times, want 1", w.flushes)
	}
	evs := streamEvents(t, w.body.Bytes())
	if len(evs) != 2 || evs[0].Type != "queued" || evs[1].Type != "done" || !evs[1].CacheHit {
		t.Fatalf("done job's stream = %+v, want queued then a cache-hit done", evs)
	}
}
