package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"prunesim/internal/scenario"
	"prunesim/internal/service"
	"prunesim/internal/store"
	"prunesim/internal/tenant"
)

// submitBody renders a POST /v1/jobs body for an inline scenario.
func submitBody(t *testing.T, sc scenario.Scenario) string {
	t.Helper()
	body, err := json.Marshal(map[string]any{"scenario": sc})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// doJSON performs a request with an optional API key and returns the status
// code, the decoded error body (zero when the request succeeded) and the
// response for header inspection.
func doTenantReq(t *testing.T, method, url, apiKey string, body string) (int, service.ErrorBody, *http.Response) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var env struct {
		Error service.ErrorBody `json:"error"`
	}
	if resp.StatusCode >= 400 {
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("decoding error envelope: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, env.Error, resp
}

// mustRegistry builds a tenant registry or fails the test.
func mustRegistry(t *testing.T, cfg tenant.Config) *tenant.Registry {
	t.Helper()
	reg, err := tenant.NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// metricsBody scrapes GET /metrics.
func metricsBody(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

// TestTenantUnauthorized: a key the registry does not know is rejected with
// 401 unauthorized on every /v1 route, while /healthz and /metrics stay
// open to unauthenticated probes.
func TestTenantUnauthorized(t *testing.T) {
	reg := mustRegistry(t, tenant.Config{
		Keys: []tenant.KeyEntry{{Key: "good-key", Name: "good"}},
	})
	srv, ts := newTestServer(t, service.Config{Workers: 1, Tenants: reg})

	code, errBody, _ := doTenantReq(t, "GET", ts.URL+"/v1/jobs", "bad-key", "")
	if code != http.StatusUnauthorized {
		t.Fatalf("unknown key: status %d, want 401", code)
	}
	if errBody.Code != service.CodeUnauthorized {
		t.Fatalf("unknown key: code %q, want %q", errBody.Code, service.CodeUnauthorized)
	}
	if got := srv.Metrics().Unauthorized.Load(); got != 1 {
		t.Fatalf("unauthorized counter = %d, want 1", got)
	}

	// Known key and no key both pass.
	if code, _, _ := doTenantReq(t, "GET", ts.URL+"/v1/jobs", "good-key", ""); code != http.StatusOK {
		t.Fatalf("known key: status %d, want 200", code)
	}
	if code, _, _ := doTenantReq(t, "GET", ts.URL+"/v1/jobs", "", ""); code != http.StatusOK {
		t.Fatalf("anonymous: status %d, want 200", code)
	}

	// Probes and scrapers are never keyed.
	if code, _, _ := doTenantReq(t, "GET", ts.URL+"/healthz", "bad-key", ""); code != http.StatusOK {
		t.Fatalf("healthz with bad key: status %d, want 200 (unauthenticated route)", code)
	}
	if body := metricsBody(t, ts); !strings.Contains(body, "prunesimd_unauthorized_total 1") {
		t.Fatalf("metrics missing unauthorized_total 1:\n%s", body)
	}
}

// TestTenantRateLimited: an empty token bucket answers 429 with the
// rate_limited code and a Retry-After header — and the counter it bumps is
// separate from the queue-full one.
func TestTenantRateLimited(t *testing.T) {
	reg := mustRegistry(t, tenant.Config{
		Keys: []tenant.KeyEntry{{
			Key:    "slow-key",
			Name:   "slow",
			Limits: tenant.Limits{RateQPS: 0.0001, Burst: 1},
		}},
	})
	srv, ts := newTestServer(t, service.Config{Workers: 1, Tenants: reg})

	// Burst of 1: the first request spends the only token.
	if code, _, _ := doTenantReq(t, "GET", ts.URL+"/v1/jobs", "slow-key", ""); code != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", code)
	}
	code, errBody, resp := doTenantReq(t, "GET", ts.URL+"/v1/jobs", "slow-key", "")
	if code != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", code)
	}
	if errBody.Code != service.CodeRateLimited {
		t.Fatalf("second request: code %q, want %q", errBody.Code, service.CodeRateLimited)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("rate-limited response carries no Retry-After header")
	}

	// The tenant bucket, not the queue, refused: the counters are distinct.
	if got := srv.Metrics().RateLimited.Load(); got != 1 {
		t.Fatalf("rate_limited counter = %d, want 1", got)
	}
	if got := srv.Metrics().JobsRejected.Load(); got != 0 {
		t.Fatalf("jobs_rejected counter = %d, want 0 (queue never refused)", got)
	}
	body := metricsBody(t, ts)
	for _, want := range []string{"prunesimd_rate_limited_total 1", "prunesimd_jobs_rejected_total 0"} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	// An unlimited tenant on the same server is unaffected.
	if code, _, _ := doTenantReq(t, "GET", ts.URL+"/v1/jobs", "", ""); code != http.StatusOK {
		t.Fatalf("anonymous after limit: status %d, want 200", code)
	}
}

// TestTenantTinyRateRetryAfter: a rate_qps so small that the wait to the
// next token overflows a time.Duration still answers a Retry-After of at
// least a century, not the 1 s floor a wrapped negative wait would give.
func TestTenantTinyRateRetryAfter(t *testing.T) {
	reg := mustRegistry(t, tenant.Config{Anonymous: tenant.Limits{RateQPS: 1e-12, Burst: 1}})
	_, ts := newTestServer(t, service.Config{Workers: 1, Tenants: reg})
	if code, _, _ := doTenantReq(t, "GET", ts.URL+"/v1/jobs", "", ""); code != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", code)
	}
	code, _, resp := doTenantReq(t, "GET", ts.URL+"/v1/jobs", "", "")
	if code != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", code)
	}
	const century = 100 * 365 * 24 * 3600
	if secs, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64); err != nil || secs < century {
		t.Fatalf("Retry-After = %q, want at least %d seconds", resp.Header.Get("Retry-After"), century)
	}
}

// TestQueueFullStillDistinct: global backpressure keeps its own 429 code
// (queue_full) and counter even with tenancy active, so clients can tell a
// full service from their own limit.
func TestQueueFullStillDistinct(t *testing.T) {
	// Workers: -1 → no workers; capacity 1 → the second distinct scenario
	// overflows the queue.
	srv, ts := newTestServer(t, service.Config{Workers: -1, QueueCapacity: 1})
	sc := smokeScenario(t)

	sc.Run.Seed = 101
	if code, _, raw := postJob(t, ts, submitBody(t, sc)); code != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", code, raw)
	}
	sc.Run.Seed = 102
	code, errBody, resp := doTenantReq(t, "POST", ts.URL+"/v1/jobs", "", submitBody(t, sc))
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", code)
	}
	if errBody.Code != service.CodeQueueFull {
		t.Fatalf("overflow submit: code %q, want %q", errBody.Code, service.CodeQueueFull)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full response carries no Retry-After header")
	}
	if got := srv.Metrics().JobsRejected.Load(); got != 1 {
		t.Fatalf("jobs_rejected counter = %d, want 1", got)
	}
	if got := srv.Metrics().RateLimited.Load(); got != 0 {
		t.Fatalf("rate_limited counter = %d, want 0", got)
	}
}

// TestTenantInflightLimit: a tenant at its in-flight cap gets 429
// inflight_limit on further cache-miss submissions, while cache hits are
// always served (they occupy no queue or worker slot).
func TestTenantInflightLimit(t *testing.T) {
	reg := mustRegistry(t, tenant.Config{
		Keys: []tenant.KeyEntry{{
			Key:    "capped-key",
			Name:   "capped",
			Limits: tenant.Limits{MaxInFlight: 1},
		}},
	})
	sc := smokeScenario(t)

	// Pre-populate the store with one finished outcome so a cache hit is
	// available even though no worker ever runs (Workers: -1).
	cachedSc := sc
	cachedSc.Run.Seed = 300
	norm, err := cachedSc.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := norm.Hash()
	if err != nil {
		t.Fatal(err)
	}
	outcome, err := scenario.NewEngine(0).Run(norm)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewMemory()
	st.Put(hash, outcome)

	srv, ts := newTestServer(t, service.Config{Workers: -1, Tenants: reg, Store: st})

	// First miss occupies the tenant's only slot.
	sc.Run.Seed = 301
	if code, _, _ := doTenantReq(t, "POST", ts.URL+"/v1/jobs", "capped-key", submitBody(t, sc)); code != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", code)
	}

	// Second miss bounces with the in-flight code, not rate_limited or
	// queue_full.
	sc.Run.Seed = 302
	code, errBody, resp := doTenantReq(t, "POST", ts.URL+"/v1/jobs", "capped-key", submitBody(t, sc))
	if code != http.StatusTooManyRequests {
		t.Fatalf("capped submit: status %d, want 429", code)
	}
	if errBody.Code != service.CodeInflightLimit {
		t.Fatalf("capped submit: code %q, want %q", errBody.Code, service.CodeInflightLimit)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("in-flight-capped response carries no Retry-After header")
	}
	if got := srv.Metrics().InflightRejected.Load(); got != 1 {
		t.Fatalf("inflight_rejected counter = %d, want 1", got)
	}

	// A cache hit sails through at the cap: born done, no slot needed.
	code, _, _ = doTenantReq(t, "POST", ts.URL+"/v1/jobs", "capped-key", submitBody(t, cachedSc))
	if code != http.StatusOK {
		t.Fatalf("cache hit at cap: status %d, want 200", code)
	}

	// Another tenant (anonymous) is not capped by this tenant's limit.
	sc.Run.Seed = 303
	if code, _, _ := doTenantReq(t, "POST", ts.URL+"/v1/jobs", "", submitBody(t, sc)); code != http.StatusAccepted {
		t.Fatalf("anonymous submit: status %d, want 202", code)
	}
}

// TestTenantInflightReleased: finishing a job frees the tenant's slot, so
// the next submission is accepted again.
func TestTenantInflightReleased(t *testing.T) {
	reg := mustRegistry(t, tenant.Config{
		Keys: []tenant.KeyEntry{{
			Key:    "one-at-a-time",
			Name:   "serial",
			Limits: tenant.Limits{MaxInFlight: 1},
		}},
	})
	_, ts := newTestServer(t, service.Config{Workers: 2, Tenants: reg})
	sc := smokeScenario(t)

	sc.Run.Seed = 310
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(submitBody(t, sc)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer one-at-a-time")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var first service.Status
	err = json.NewDecoder(resp.Body).Decode(&first)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts, first.ID)

	sc.Run.Seed = 311
	if code, errBody, _ := doTenantReq(t, "POST", ts.URL+"/v1/jobs", "one-at-a-time", submitBody(t, sc)); code != http.StatusAccepted {
		t.Fatalf("submit after release: status %d (code %q), want 202", code, errBody.Code)
	}
}

// TestHealthzReportsTenants: /healthz carries per-tenant accounting
// snapshots and the shard position when configured.
func TestHealthzReportsTenants(t *testing.T) {
	reg := mustRegistry(t, tenant.Config{
		Keys: []tenant.KeyEntry{{Key: "hk", Name: "health-tenant"}},
	})
	_, ts := newTestServer(t, service.Config{
		Workers: 1, Tenants: reg,
		ShardIndex: 1, ShardCount: 3,
	})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Shard   string            `json:"shard"`
		Tenants []tenant.Snapshot `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Shard != "1/3" {
		t.Fatalf("healthz shard = %q, want \"1/3\"", body.Shard)
	}
	names := make([]string, len(body.Tenants))
	for i, tn := range body.Tenants {
		names[i] = tn.Name
	}
	want := []string{"anonymous", "health-tenant"}
	if len(names) != len(want) || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("healthz tenants = %v, want %v", names, want)
	}
}

// TestIDPrefix: a server configured as one shard of a fleet mints job and
// session IDs under its prefix, so a front door can route by ID alone.
func TestIDPrefix(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1, IDPrefix: "s1-"})

	sc := smokeScenario(t)
	code, st, raw := postJob(t, ts, submitBody(t, sc))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, raw)
	}
	if st.ID != "s1-j000001" {
		t.Fatalf("job ID %q, want \"s1-j000001\"", st.ID)
	}

	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"platform": {"machines": 2, "heuristic": "MCT"}, "prune": {}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sess struct {
		SessionID string `json:"session_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("session create: status %d", resp.StatusCode)
	}
	if sess.SessionID != "s1-s000001" {
		t.Fatalf("session ID %q, want \"s1-s000001\"", sess.SessionID)
	}
}

// TestServiceDiskRestart is the persistence acceptance path at the service
// level: run a scenario on a disk-backed server, shut it down, start a
// fresh server over the same directory and assert the resubmission is a
// cache hit with a byte-identical trials.csv artifact.
func TestServiceDiskRestart(t *testing.T) {
	dir := t.TempDir()
	sc := smokeScenario(t)
	body := submitBody(t, sc)

	fetchCSV := func(ts *httptest.Server, id string) []byte {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trials.csv")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trials.csv status %d", resp.StatusCode)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	// First life: run the scenario and let the store persist it.
	st1, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := service.New(service.Config{Workers: 2, Store: st1})
	ts1 := httptest.NewServer(srv1.Handler())
	code, st, raw := postJob(t, ts1, body)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", code, raw)
	}
	final := waitDone(t, ts1, st.ID)
	if final.State != service.StateDone {
		t.Fatalf("first job ended %q (%s)", final.State, final.Error)
	}
	csv1 := fetchCSV(ts1, st.ID)
	ts1.Close()
	srv1.Close() // closes st1; every committed entry is on disk

	// Second life: a fresh server over the same directory answers the same
	// submission from the store without an engine run.
	st2, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 1 {
		t.Fatalf("reopened store has %d entries, want 1", st2.Len())
	}
	srv2, ts2 := newTestServer(t, service.Config{Workers: 2, Store: st2})
	code2, st2nd, raw2 := postJob(t, ts2, body)
	if code2 != http.StatusOK {
		t.Fatalf("restart submit: status %d, want 200 (cache hit): %s", code2, raw2)
	}
	if !st2nd.CacheHit {
		t.Fatal("restart submission was not a cache hit")
	}
	if srv2.Metrics().EngineRuns.Load() != 0 {
		t.Fatal("restart submission ran the engine")
	}
	csv2 := fetchCSV(ts2, st2nd.ID)
	if !bytes.Equal(csv1, csv2) {
		t.Fatalf("trials.csv changed across restart:\nbefore: %d bytes\nafter:  %d bytes", len(csv1), len(csv2))
	}
}
