package shard_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	scenarios "prunesim/examples/scenarios"
	"prunesim/internal/scenario"
	"prunesim/internal/service"
	"prunesim/internal/shard"
	"prunesim/internal/tenant"
)

// fleet is a two-shard prunesimd topology behind a front-door router, the
// README quickstart in miniature.
type fleet struct {
	router   *shard.Router
	door     *httptest.Server
	backends []*httptest.Server
	library  []scenario.Scenario
}

// newFleet starts n service shards (each minting its own ID prefix) and a
// front door over them.
func newFleet(t *testing.T, n int) *fleet {
	t.Helper()
	lib, err := scenarios.Library()
	if err != nil {
		t.Fatal(err)
	}
	f := &fleet{library: lib}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv := service.New(service.Config{
			Workers:    2,
			Library:    lib,
			IDPrefix:   shard.Prefix(i),
			ShardIndex: i, ShardCount: n,
		})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		f.backends = append(f.backends, ts)
		addrs[i] = ts.URL
	}
	rt, err := shard.NewRouter(shard.RouterConfig{Backends: addrs, Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	f.router = rt
	f.door = httptest.NewServer(rt.Handler())
	t.Cleanup(f.door.Close)
	return f
}

// smoke returns the service_smoke library scenario.
func (f *fleet) smoke(t *testing.T) scenario.Scenario {
	t.Helper()
	for _, s := range f.library {
		if s.Name == "service_smoke" {
			return s
		}
	}
	t.Fatal("service_smoke not in library")
	return scenario.Scenario{}
}

// seedFor returns the smoke scenario reseeded so its content hash routes
// to the wanted shard of n.
func (f *fleet) seedFor(t *testing.T, want, n int) scenario.Scenario {
	t.Helper()
	sc := f.smoke(t)
	for seed := uint64(1); seed < 500; seed++ {
		sc.Run.Seed = seed
		norm, err := sc.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		hash, err := norm.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if shard.For(hash, n) == want {
			return sc
		}
	}
	t.Fatalf("no seed under 500 routes to shard %d/%d", want, n)
	return scenario.Scenario{}
}

// submit POSTs a scenario through the front door and decodes the Status.
func (f *fleet) submit(t *testing.T, sc scenario.Scenario) (int, service.Status) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"scenario": sc})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.door.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st service.Status
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decoding status: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, st
}

// waitDone polls a job through the front door until terminal.
func (f *fleet) waitDone(t *testing.T, id string) service.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(f.door.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st service.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == service.StateDone || st.State == service.StateFailed {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish through the front door", id)
	return service.Status{}
}

// TestRouterSubmitByHash: identical submissions land on the same shard —
// the resubmission is a cache hit — and the job ID's prefix names the
// shard the hash maps to.
func TestRouterSubmitByHash(t *testing.T) {
	f := newFleet(t, 2)
	sc := f.smoke(t)

	code, st := f.submit(t, sc)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	norm, _ := sc.Normalize()
	hash, _ := norm.Hash()
	wantShard := shard.For(hash, 2)
	if got, ok := shard.ShardOfID(st.ID); !ok || got != wantShard {
		t.Fatalf("job %q minted on shard %d, want %d (hash routing)", st.ID, got, wantShard)
	}
	f.waitDone(t, st.ID)

	code2, st2 := f.submit(t, sc)
	if code2 != http.StatusOK || !st2.CacheHit {
		t.Fatalf("resubmission: status %d cache_hit %v; want 200 true (same shard, same cache)", code2, st2.CacheHit)
	}
}

// TestRouterListMergesShards: jobs running on different shards appear in
// one merged front-door listing, and trials.csv routes by ID prefix.
func TestRouterListMergesShards(t *testing.T) {
	f := newFleet(t, 2)
	onShard0 := f.seedFor(t, 0, 2)
	onShard1 := f.seedFor(t, 1, 2)

	_, st0 := f.submit(t, onShard0)
	_, st1 := f.submit(t, onShard1)
	if s, _ := shard.ShardOfID(st0.ID); s != 0 {
		t.Fatalf("seedFor(0) job %q not on shard 0", st0.ID)
	}
	if s, _ := shard.ShardOfID(st1.ID); s != 1 {
		t.Fatalf("seedFor(1) job %q not on shard 1", st1.ID)
	}
	f.waitDone(t, st0.ID)
	f.waitDone(t, st1.ID)

	resp, err := http.Get(f.door.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page struct {
		Jobs []service.Status `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool, len(page.Jobs))
	for _, j := range page.Jobs {
		ids[j.ID] = true
	}
	if !ids[st0.ID] || !ids[st1.ID] {
		t.Fatalf("merged listing %v missing %s or %s", ids, st0.ID, st1.ID)
	}

	// The CSV artifact routes by prefix like any other ID-addressed call.
	csvResp, err := http.Get(f.door.URL + "/v1/jobs/" + st1.ID + "/trials.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer csvResp.Body.Close()
	if csvResp.StatusCode != http.StatusOK {
		t.Fatalf("trials.csv via front door: status %d", csvResp.StatusCode)
	}
}

// TestRouterSSE: the front door streams a shard's SSE events through
// unbuffered, ending with the done event. Several concurrent streams of
// one job share the proxies' buffer pool and the job's event history.
func TestRouterSSE(t *testing.T) {
	f := newFleet(t, 2)
	_, st := f.submit(t, f.smoke(t))

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(f.door.URL + "/v1/jobs/" + st.ID + "/events")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
				t.Errorf("events content-type %q", ct)
				return
			}
			scanner := bufio.NewScanner(resp.Body)
			for scanner.Scan() {
				if scanner.Text() == "event: done" {
					return
				}
			}
			t.Error("SSE stream through the front door never delivered the done event")
		}()
	}
	wg.Wait()
}

// TestRouterSessions: session creation round-robins across shards and
// every later session call routes by the minted ID's prefix.
func TestRouterSessions(t *testing.T) {
	f := newFleet(t, 2)
	create := func() string {
		resp, err := http.Post(f.door.URL+"/v1/sessions", "application/json",
			strings.NewReader(`{"platform": {"machines": 2, "heuristic": "MCT"}, "prune": {}}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("session create: status %d: %s", resp.StatusCode, raw)
		}
		var body struct {
			SessionID string `json:"session_id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.SessionID
	}

	id0, id1 := create(), create()
	if s, _ := shard.ShardOfID(id0); s != 0 {
		t.Fatalf("first session %q not on shard 0", id0)
	}
	if s, _ := shard.ShardOfID(id1); s != 1 {
		t.Fatalf("second session %q not on shard 1 (round-robin)", id1)
	}

	// Decide routes to the owning shard by prefix.
	resp, err := http.Post(f.door.URL+"/v1/sessions/"+id1+"/decide", "application/json",
		strings.NewReader(`{"type": 0, "deadline": 1e6, "now": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("decide via front door: status %d: %s", resp.StatusCode, raw)
	}

	// The merged session listing sees both shards' sessions.
	listResp, err := http.Get(f.door.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var page struct {
		Sessions []struct {
			ID string `json:"session_id"`
		} `json:"sessions"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, s := range page.Sessions {
		found[s.ID] = true
	}
	if !found[id0] || !found[id1] {
		t.Fatalf("merged session list %v missing %s or %s", found, id0, id1)
	}

	// Delete by prefix too.
	req, _ := http.NewRequest("DELETE", f.door.URL+"/v1/sessions/"+id0, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("delete via front door: status %d", delResp.StatusCode)
	}
}

// TestRouterMisroute: an ID with no routable prefix answers the uniform
// envelope with not_found instead of being proxied anywhere.
func TestRouterMisroute(t *testing.T) {
	f := newFleet(t, 2)
	for _, id := range []string{"j000001", "s9-j000001"} {
		resp, err := http.Get(f.door.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound || env.Error.Code != "not_found" {
			t.Fatalf("misroute %q: status %d code %q, want 404 not_found", id, resp.StatusCode, env.Error.Code)
		}
	}
}

// TestRouterHealthz: the front door probes every shard — all up is ok,
// a dead shard degrades it to 503.
func TestRouterHealthz(t *testing.T) {
	f := newFleet(t, 2)
	get := func() (int, string) {
		resp, err := http.Get(f.door.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Status string `json:"status"`
			Shards []struct {
				OK bool `json:"ok"`
			} `json:"shards"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body.Status
	}
	if code, status := get(); code != http.StatusOK || status != "ok" {
		t.Fatalf("healthy fleet: %d %q", code, status)
	}
	f.backends[1].Close()
	if code, status := get(); code != http.StatusServiceUnavailable || status != "degraded" {
		t.Fatalf("fleet with a dead shard: %d %q, want 503 degraded", code, status)
	}
}

// TestRouterMetrics: the front door exposes its own routing counters.
func TestRouterMetrics(t *testing.T) {
	f := newFleet(t, 2)
	f.submit(t, f.smoke(t))
	resp, err := http.Get(f.door.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`prunesimd_router_forwarded_total{shard="0"}`,
		`prunesimd_router_forwarded_total{shard="1"}`,
		"prunesimd_router_fanouts_total",
		"prunesimd_router_misroutes_total",
		"prunesimd_router_bad_gateway_total",
	} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("router metrics missing %q:\n%s", want, raw)
		}
	}
}

// TestRouterListForwardsCredentials: list fan-outs present the caller's
// API key to every shard. A keyed tenant is not throttled by the
// anonymous tenant's bucket, and a key the shards do not know is refused
// with their 401 instead of listing anonymously.
func TestRouterListForwardsCredentials(t *testing.T) {
	lib, err := scenarios.Library()
	if err != nil {
		t.Fatal(err)
	}
	const n = 2
	addrs := make([]string, n)
	for i := range addrs {
		reg, err := tenant.NewRegistry(tenant.Config{
			Anonymous: tenant.Limits{RateQPS: 0.001, Burst: 1},
			Keys:      []tenant.KeyEntry{{Key: "team-key", Name: "team"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := service.New(service.Config{Workers: -1, Library: lib, Tenants: reg, IDPrefix: shard.Prefix(i)})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		addrs[i] = ts.URL
	}
	rt, err := shard.NewRouter(shard.RouterConfig{Backends: addrs, Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	door := httptest.NewServer(rt.Handler())
	t.Cleanup(door.Close)

	var retryAfter string
	list := func(path, header, value string) (int, string) {
		req, _ := http.NewRequest("GET", door.URL+path, nil)
		if header != "" {
			req.Header.Set(header, value)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		retryAfter = resp.Header.Get("Retry-After")
		return resp.StatusCode, string(raw)
	}
	for _, path := range []string{"/v1/jobs", "/v1/sessions"} {
		for i := 0; i < 3; i++ {
			if code, raw := list(path, "Authorization", "Bearer team-key"); code != http.StatusOK {
				t.Fatalf("keyed %s #%d: status %d, want 200: %s", path, i+1, code, raw)
			}
			if code, raw := list(path, "X-API-Key", "team-key"); code != http.StatusOK {
				t.Fatalf("keyed (X-API-Key) %s #%d: status %d, want 200: %s", path, i+1, code, raw)
			}
		}
		code, raw := list(path, "Authorization", "Bearer revoked-key")
		if code != http.StatusUnauthorized || !strings.Contains(raw, `"unauthorized"`) {
			t.Fatalf("unknown key %s: status %d, want 401 unauthorized: %s", path, code, raw)
		}
	}
	// Anonymous callers still get their own bucket: the first list spends
	// each shard's only token, the second relays the shard's 429.
	if code, raw := list("/v1/jobs", "", ""); code != http.StatusOK {
		t.Fatalf("first anonymous list: status %d, want 200: %s", code, raw)
	}
	code, raw := list("/v1/jobs", "", "")
	if code != http.StatusTooManyRequests || !strings.Contains(raw, `"rate_limited"`) || retryAfter == "" {
		t.Fatalf("second anonymous list: status %d, Retry-After %q, want 429 rate_limited with Retry-After: %s", code, retryAfter, raw)
	}
}
