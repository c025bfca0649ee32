package shard_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	scenarios "prunesim/examples/scenarios"
	"prunesim/internal/service"
	"prunesim/internal/shard"
)

// BenchmarkRouterSubmitHit measures one cache-hit job through the front
// door: POST /v1/jobs via the router to a single in-process shard with an
// in-memory store, then GET its /events stream to done. Both legs are
// proxied responses, so the op covers hash routing, the reverse proxy and
// the shard's answer encoding; the engine never runs.
func BenchmarkRouterSubmitHit(b *testing.B) {
	lib, err := scenarios.Library()
	if err != nil {
		b.Fatal(err)
	}
	srv := service.New(service.Config{Workers: 1, Library: lib, IDPrefix: shard.Prefix(0)})
	backend := httptest.NewServer(srv.Handler())
	defer func() { backend.Close(); srv.Close() }()
	rt, err := shard.NewRouter(shard.RouterConfig{Backends: []string{backend.URL}, Library: lib})
	if err != nil {
		b.Fatal(err)
	}
	door := httptest.NewServer(rt.Handler())
	defer door.Close()

	client := door.Client()
	var buf bytes.Buffer
	// job submits service_smoke and reads its event stream to the end,
	// reporting the submit status and whether the stream reached done.
	job := func() (int, bool) {
		resp, err := client.Post(door.URL+"/v1/jobs", "application/json", strings.NewReader(`{"name":"service_smoke"}`))
		if err != nil {
			b.Fatal(err)
		}
		var st service.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		resp, err = client.Get(door.URL + "/v1/jobs/" + st.ID + "/events")
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		return resp.StatusCode, bytes.Contains(buf.Bytes(), []byte("event: done"))
	}
	// Warm the cache: the first job runs the engine; wait for its stream.
	if _, done := job(); !done {
		b.Fatal("warm-up job's stream ended before done")
	}
	if code, done := job(); code != http.StatusOK || !done {
		b.Fatalf("warm resubmission: events status %d, done %v", code, done)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, done := job(); !done {
			b.Fatal("cache-hit stream ended before done")
		}
	}
}
