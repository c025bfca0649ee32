package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	scenarios "prunesim/examples/scenarios"
	"prunesim/internal/scenario"
)

// refShardForSubmit is the two-pass router the one-pass shardForSubmit
// replaced, kept as the reference it must agree with: decode the body to
// a raw scenario, Parse it strictly, Normalize, then Hash. It also reports
// whether it hashed the body at all; a body it falls back on shard 0 for
// is one no shard accepts.
func refShardForSubmit(rt *Router, body []byte) (int, bool) {
	var req struct {
		Name     string          `json:"name"`
		Scenario json.RawMessage `json:"scenario"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return 0, false
	}
	var sc scenario.Scenario
	switch {
	case req.Name != "":
		lib, ok := rt.library[req.Name]
		if !ok {
			return 0, false
		}
		sc = lib
	case req.Scenario != nil:
		parsed, err := scenario.Parse(req.Scenario)
		if err != nil {
			return 0, false
		}
		sc = parsed
	default:
		return 0, false
	}
	norm, err := sc.Normalize()
	if err != nil {
		return 0, false
	}
	hash, err := norm.Hash()
	if err != nil {
		return 0, false
	}
	return For(hash, len(rt.backends)), true
}

// fleetSizes are the front doors the routing checks compare on. Two
// different hashes agree on one fleet size with probability about 1/n,
// so checking several sizes makes a wrong hash all but certain to show.
var fleetSizes = []int{2, 3, 5, 7, 11, 13}

// testRouters builds one router per fleet size over the shipped library.
// The backend URLs are never dialed.
func testRouters(t testing.TB) []*Router {
	t.Helper()
	lib, err := scenarios.Library()
	if err != nil {
		t.Fatal(err)
	}
	var rts []*Router
	for _, n := range fleetSizes {
		backends := make([]string, n)
		for i := range backends {
			backends[i] = fmt.Sprintf("127.0.0.1:%d", 9000+i)
		}
		rt, err := NewRouter(RouterConfig{Backends: backends, Library: lib})
		if err != nil {
			t.Fatal(err)
		}
		rts = append(rts, rt)
	}
	return rts
}

// submitBodies returns the submit bodies the routing checks send for
// every shipped scenario: the file as written, inline after Normalize,
// by name, renamed, and with another run.parallelism.
func submitBodies(t testing.TB) [][]byte {
	t.Helper()
	lib, err := scenarios.Library()
	if err != nil {
		t.Fatal(err)
	}
	inline := func(v any) []byte {
		data, err := json.Marshal(map[string]any{"scenario": v})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var bodies [][]byte
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) != len(lib) {
		t.Fatalf("found %d scenario files for %d library entries (err %v)", len(files), len(lib), err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, inline(json.RawMessage(raw)))
	}
	for _, sc := range lib {
		bodies = append(bodies, inline(sc), []byte(fmt.Sprintf(`{"name":%q}`, sc.Name)))
		renamed := sc
		renamed.Name, renamed.Description = "renamed", "another label"
		parallel := sc
		parallel.Run.Parallelism = sc.Run.Parallelism + 3
		bodies = append(bodies, inline(renamed), inline(parallel))
	}
	return bodies
}

// TestRouteMatchesReference sends every shipped scenario inline, by name,
// renamed and with another run.parallelism, and wants the one-pass router
// to pick the reference's shard on every fleet size.
func TestRouteMatchesReference(t *testing.T) {
	rts := testRouters(t)
	for i, body := range submitBodies(t) {
		for _, rt := range rts {
			want, hashed := refShardForSubmit(rt, body)
			if !hashed {
				// Only a file that names a trace CSV may fail to hash
				// inline: the service never reads files for a client.
				var req struct {
					Scenario scenario.Scenario `json:"scenario"`
				}
				if json.Unmarshal(body, &req) != nil || req.Scenario.Workload.Trace == nil {
					t.Fatalf("body %d: the reference did not hash it: %s", i, body)
				}
				continue
			}
			if got := rt.shardForSubmit(body); got != want {
				t.Fatalf("body %d on %d shards: routed to %d, reference %d: %s", i, len(rt.backends), got, want, body)
			}
		}
	}
}

// FuzzRouteSubmit wants the one-pass router to pick the reference's shard
// for every body the reference hashes, on every fleet size. Bodies the
// reference does not hash are rejected by every shard, so any route is
// right for them; they must only not panic.
func FuzzRouteSubmit(f *testing.F) {
	for _, body := range submitBodies(f) {
		f.Add(body)
	}
	for _, body := range []string{
		`{}`,
		`null`,
		`{"name":""}`,
		`{"name":"nope"}`,
		`{"scenario":null}`,
		`{"scenario":{}}`,
		`{"scenario":{"workload":{"tasks":50}}}`,
		`{"scenario":{"workload":{"tasks":50},"bogus":1}}`,
		`{"scenario":{"workload":{"tasks":50}},"extra":true}`,
		`{"name":"service_smoke","scenario":{"workload":{"tasks":50}}}`,
		`{"Scenario":{"Workload":{"Tasks":50}}}`,
		`{"scenario":{"run":{"seed":5}},"scenario":{"workload":{"tasks":50}}}`,
		`{"scenario":{"workload":{"tasks":50}},"SCENARIO":{"workload":{"tasks":60}}}`,
		`{"scenario":{"workload":{"tasks":50}},"scenario":null}`,
		`{"scenario":{"workload":{"tasks":50}}} trailing`,
		`{"scenario":{"workload":{"tasks":"50"}}}`,
	} {
		f.Add([]byte(body))
	}
	rts := testRouters(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, rt := range rts {
			got := rt.shardForSubmit(body)
			if got < 0 || got >= len(rt.backends) {
				t.Fatalf("routed to %d on %d shards", got, len(rt.backends))
			}
			if want, hashed := refShardForSubmit(rt, body); hashed && got != want {
				t.Fatalf("on %d shards: routed to %d, reference %d: %q", len(rt.backends), got, want, body)
			}
		}
	})
}

// routeSink keeps BenchmarkRouterRoute's result live.
var routeSink int

// BenchmarkRouterRoute measures the front door's routing decision for one
// inline service_smoke submit: decode the body and hash the scenario.
func BenchmarkRouterRoute(b *testing.B) {
	rt := testRouters(b)[0]
	body, err := json.Marshal(map[string]any{"scenario": rt.library["service_smoke"]})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routeSink = rt.shardForSubmit(body)
	}
}
