package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	scenarios "prunesim/examples/scenarios"
	"prunesim/internal/scenario"
	"prunesim/internal/service"
	"prunesim/internal/store"
)

// smokeScenario returns the shipped service_smoke scenario from the
// embedded library.
func smokeScenario(t *testing.T) scenario.Scenario {
	t.Helper()
	lib, err := scenarios.Library()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range lib {
		if s.Name == "service_smoke" {
			return s
		}
	}
	t.Fatal("service_smoke not in embedded library")
	return scenario.Scenario{}
}

// newTestServer builds a server + httptest front end and tears both down.
func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	if cfg.Library == nil {
		lib, err := scenarios.Library()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Library = lib
	}
	srv := service.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// postJob submits a request body and decodes the response.
func postJob(t *testing.T, ts *httptest.Server, body string) (int, service.Status, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var st service.Status
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
			t.Fatalf("decoding job status: %v\n%s", err, buf.String())
		}
	}
	return resp.StatusCode, st, buf.String()
}

// waitDone polls GET /v1/jobs/{id} until the job is terminal.
func waitDone(t *testing.T, ts *httptest.Server, id string) service.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
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
	t.Fatalf("job %s did not finish in time", id)
	return service.Status{}
}

// TestEndToEndSubmitPollCache is the acceptance-criteria e2e: submit the
// smoke scenario over HTTP, poll to completion, assert the robustness
// summary is byte-identical to running the same scenario+seed through the
// cmd/hcsim path (a fresh engine's Run), then resubmit and assert a cache
// hit with no new engine run.
func TestEndToEndSubmitPollCache(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{QueueCapacity: 4, Workers: 2})
	sc := smokeScenario(t)
	body, err := json.Marshal(map[string]any{"scenario": sc})
	if err != nil {
		t.Fatal(err)
	}

	code, st, raw := postJob(t, ts, string(body))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", code, raw)
	}
	if st.State != service.StateQueued && st.State != service.StateRunning {
		t.Fatalf("fresh job state %q", st.State)
	}
	if st.CacheHit {
		t.Fatal("fresh submission reported a cache hit")
	}

	final := waitDone(t, ts, st.ID)
	if final.State != service.StateDone {
		t.Fatalf("job ended %q (error %q)", final.State, final.Error)
	}
	if final.Outcome == nil {
		t.Fatal("done job carries no outcome")
	}
	if final.TrialsDone != sc.Run.Trials || final.TrialsTotal != sc.Run.Trials {
		t.Fatalf("trials %d/%d, want %d/%d", final.TrialsDone, final.TrialsTotal, sc.Run.Trials, sc.Run.Trials)
	}

	// Byte-identical to the CLI path: cmd/hcsim runs scenarios through a
	// fresh engine's Run (prunesim.NewStudy(sc).Run()).
	direct, err := scenario.NewEngine(0).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	wantRob, err := json.Marshal(direct.Robustness)
	if err != nil {
		t.Fatal(err)
	}
	gotRob, err := json.Marshal(final.Outcome.Robustness)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantRob, gotRob) {
		t.Fatalf("service robustness %s != CLI-path robustness %s", gotRob, wantRob)
	}

	// Resubmission of the identical scenario is a cache hit: answered done
	// immediately, no new engine run.
	runsBefore := srv.Metrics().EngineRuns.Load()
	code, st2, raw := postJob(t, ts, string(body))
	if code != http.StatusOK {
		t.Fatalf("resubmit status %d: %s", code, raw)
	}
	if st2.State != service.StateDone || !st2.CacheHit {
		t.Fatalf("resubmit state=%q cache_hit=%v, want done/true", st2.State, st2.CacheHit)
	}
	if got, err := json.Marshal(st2.Outcome.Robustness); err != nil || !bytes.Equal(got, wantRob) {
		t.Fatalf("cached robustness %s != %s (err %v)", got, wantRob, err)
	}
	if runs := srv.Metrics().EngineRuns.Load(); runs != runsBefore {
		t.Fatalf("cache hit triggered an engine run (%d -> %d)", runsBefore, runs)
	}
	if hits := srv.Metrics().CacheHits.Load(); hits != 1 {
		t.Fatalf("cache_hits = %d, want 1", hits)
	}

	// A cosmetic rename is still the same computation: cache hit again.
	renamed := sc
	renamed.Name = "smoke-renamed"
	renamed.Description = "same computation"
	body2, _ := json.Marshal(map[string]any{"scenario": renamed})
	code, st3, raw := postJob(t, ts, string(body2))
	if code != http.StatusOK || !st3.CacheHit {
		t.Fatalf("renamed resubmit: status %d cache_hit %v: %s", code, st3.CacheHit, raw)
	}
}

// TestSubmitByName runs a library scenario by name.
func TestSubmitByName(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 2})
	code, st, raw := postJob(t, ts, `{"name": "service_smoke"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", code, raw)
	}
	final := waitDone(t, ts, st.ID)
	if final.State != service.StateDone {
		t.Fatalf("job ended %q (%s)", final.State, final.Error)
	}
	if final.Scenario != "service_smoke" {
		t.Fatalf("job scenario %q", final.Scenario)
	}
}

// TestEventsSSE streams a job's progress and expects the full lifecycle:
// queued, running, one progress event per trial, then done.
func TestEventsSSE(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1})
	sc := smokeScenario(t)
	body, _ := json.Marshal(map[string]any{"scenario": sc})
	code, st, raw := postJob(t, ts, string(body))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", code, raw)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	var types []string
	var progress int
	sc2 := bufio.NewScanner(resp.Body)
	for sc2.Scan() {
		line := sc2.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		if ev.JobID != st.ID {
			t.Fatalf("event for job %q, want %q", ev.JobID, st.ID)
		}
		types = append(types, ev.Type)
		if ev.Type == "progress" {
			progress++
			if ev.Trial == nil || ev.Trial.Total != sc.Run.Trials {
				t.Fatalf("progress event missing trial payload: %+v", ev)
			}
		}
		if ev.Type == "done" || ev.Type == "failed" {
			break
		}
	}
	if err := sc2.Err(); err != nil {
		t.Fatal(err)
	}
	if len(types) == 0 || types[0] != "queued" {
		t.Fatalf("event stream did not start with queued: %v", types)
	}
	if progress != sc.Run.Trials {
		t.Fatalf("progress events %d, want %d (stream: %v)", progress, sc.Run.Trials, types)
	}
	if last := types[len(types)-1]; last != "done" {
		t.Fatalf("stream ended with %q: %v", last, types)
	}

	// A late subscriber replays the identical full history.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replayed := 0
	sc3 := bufio.NewScanner(resp2.Body)
	for sc3.Scan() {
		if strings.HasPrefix(sc3.Text(), "data: ") {
			replayed++
		}
		if strings.HasPrefix(sc3.Text(), "event: done") {
			break
		}
	}
	if want := len(types); replayed < want-1 {
		t.Fatalf("late subscriber replayed %d events, want ~%d", replayed, want)
	}
}

// TestBackpressure: with no workers draining, submissions beyond the queue
// capacity are shed with 429 immediately — the accept loop never blocks.
func TestBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{QueueCapacity: 2, Workers: -1})
	submit := func(seed uint64) (int, string) {
		sc := smokeScenario(t)
		sc.Run.Seed = seed // distinct seeds: no cache interference
		body, _ := json.Marshal(map[string]any{"scenario": sc})
		code, _, raw := postJob(t, ts, string(body))
		return code, raw
	}
	for i := uint64(1); i <= 2; i++ {
		start := time.Now()
		if code, raw := submit(i); code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, code, raw)
		} else if time.Since(start) > 5*time.Second {
			t.Fatalf("submit %d blocked", i)
		}
	}
	start := time.Now()
	code, raw := submit(3)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429: %s", code, raw)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("over-capacity submit blocked instead of shedding")
	}
	if !strings.Contains(raw, "queue full") {
		t.Fatalf("429 body %q", raw)
	}
	if rej := srv.Metrics().JobsRejected.Load(); rej != 1 {
		t.Fatalf("jobs_rejected = %d, want 1", rej)
	}
	// The shed job must not be registered.
	resp, err := http.Get(ts.URL + "/v1/jobs/j000003")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("shed job resolvable: status %d", resp.StatusCode)
	}
}

// TestSubmitValidation covers the 4xx surface of POST /v1/jobs.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: -1})
	cases := []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},                             // malformed JSON
		{`{}`, http.StatusBadRequest},                            // neither name nor scenario
		{`{"name": "nope"}`, http.StatusNotFound},                // unknown library name
		{`{"name": "a", "scenario": {}}`, http.StatusBadRequest}, // both
		{`{"unknown_field": 1}`, http.StatusBadRequest},          // strict decoding
		{`{"scenario": {"workload": {"tasks": -5}, "platform": {}, "prune": {}, "run": {}}}`, http.StatusBadRequest}, // invalid scenario
		{`{"scenario": {"workload": {"tasks": 100}, "platform": {"heuristic": "NOPE"}, "prune": {}, "run": {}}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		code, _, raw := postJob(t, ts, c.body)
		if code != c.want {
			t.Errorf("body %s: status %d, want %d (%s)", c.body, code, c.want, raw)
		}
		if !strings.Contains(raw, "error") {
			t.Errorf("body %s: no JSON error payload: %s", c.body, raw)
		}
	}
}

// TestScenariosEndpoint lists the embedded library.
func TestScenariosEndpoint(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: -1})
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Scenarios []struct {
			Name, Description, Hash string
			Tasks, Trials           int
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Scenarios) < 11 {
		t.Fatalf("library lists %d scenarios, want >= 11", len(out.Scenarios))
	}
	found := map[string]bool{}
	for _, s := range out.Scenarios {
		found[s.Name] = true
		if len(s.Hash) != 64 {
			t.Errorf("scenario %s: bad hash %q", s.Name, s.Hash)
		}
		if s.Description == "" {
			t.Errorf("scenario %s: no description", s.Name)
		}
	}
	for _, want := range []string{"service_smoke", "spiky_oversubscription", "bursty_arrivals"} {
		if !found[want] {
			t.Errorf("library missing %s", want)
		}
	}
}

// TestTrialsCSV serves the per-job artifact once done, 409 before.
func TestTrialsCSV(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1})
	sc := smokeScenario(t)
	body, _ := json.Marshal(map[string]any{"scenario": sc})
	_, st, _ := postJob(t, ts, string(body))
	final := waitDone(t, ts, st.ID)
	if final.State != service.StateDone {
		t.Fatalf("job ended %q", final.State)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trials.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trials.csv status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("Content-Type %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+sc.Run.Trials {
		t.Fatalf("trials.csv has %d lines, want %d", len(lines), 1+sc.Run.Trials)
	}
	if !strings.HasPrefix(lines[0], "trial,robustness,") {
		t.Fatalf("header %q", lines[0])
	}

	// A job that cannot be done yet answers 409.
	_, ts2 := newTestServer(t, service.Config{Workers: -1})
	_, st2, _ := postJob(t, ts2, string(body))
	resp2, err := http.Get(ts2.URL + "/v1/jobs/" + st2.ID + "/trials.csv")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("pre-completion trials.csv status %d, want 409", resp2.StatusCode)
	}
}

// TestHealthzAndMetrics checks the observability endpoints.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1, QueueCapacity: 7})
	sc := smokeScenario(t)
	body, _ := json.Marshal(map[string]any{"scenario": sc})
	_, st, _ := postJob(t, ts, string(body))
	waitDone(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz %v", health)
	}
	if health["queue_capacity"].(float64) != 7 {
		t.Fatalf("queue_capacity %v", health["queue_capacity"])
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	text := buf.String()
	for _, want := range []string{
		"prunesimd_jobs_submitted_total 1",
		fmt.Sprintf("prunesimd_trials_done_total %d", sc.Run.Trials),
		"prunesimd_jobs_done_total 1",
		"prunesimd_cache_hits_total 0",
		"prunesimd_queue_depth 0",
		"# TYPE prunesimd_trials_per_sec gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestListJobs returns submissions in order without heavy outcome payloads.
func TestListJobs(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1})
	sc := smokeScenario(t)
	for seed := uint64(1); seed <= 2; seed++ {
		s := sc
		s.Run.Seed = seed
		body, _ := json.Marshal(map[string]any{"scenario": s})
		if code, _, raw := postJob(t, ts, string(body)); code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", code, raw)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct{ Jobs []service.Status }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(out.Jobs))
	}
	if out.Jobs[0].ID >= out.Jobs[1].ID {
		t.Fatalf("jobs out of order: %s, %s", out.Jobs[0].ID, out.Jobs[1].ID)
	}
	for _, j := range out.Jobs {
		if j.Outcome != nil {
			t.Errorf("job listing carries outcome payload for %s", j.ID)
		}
	}
}

// TestLibraryShadowing: a later library entry with the same name (an
// operator-provided file) overrides the earlier one, and the listing is
// deduped to exactly the runnable set.
func TestLibraryShadowing(t *testing.T) {
	base := smokeScenario(t)
	override := base
	override.Description = "operator override"
	override.Run.Seed = 777
	_, ts := newTestServer(t, service.Config{
		Workers: -1,
		Library: []scenario.Scenario{base, override},
	})
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Scenarios []struct{ Name, Description string }
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Scenarios) != 1 {
		t.Fatalf("listed %d entries for one name, want 1", len(out.Scenarios))
	}
	if out.Scenarios[0].Description != "operator override" {
		t.Fatalf("listing shows %q, want the overriding entry", out.Scenarios[0].Description)
	}
	code, st, raw := postJob(t, ts, `{"name": "service_smoke"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	if st.Hash == "" {
		t.Fatal("no hash on submitted job")
	}
	wantHash, err := override.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if st.Hash != wantHash {
		t.Fatalf("by-name submit ran the shadowed entry (hash %s, want %s)", st.Hash, wantHash)
	}
}

// TestCloseRejectsSubmissions: a closed server sheds with 503.
func TestCloseRejectsSubmissions(t *testing.T) {
	lib, err := scenarios.Library()
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{Workers: 1, Library: lib})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Close()
	code, _, raw := postJob(t, ts, `{"name": "service_smoke"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-close submit: status %d: %s", code, raw)
	}
	if _, err := srv.Submit(smokeScenario(t)); err == nil {
		t.Fatal("post-close Submit accepted")
	}
	srv.Close() // idempotent
}

// TestMemoryStore covers the default Store implementation.
func TestMemoryStore(t *testing.T) {
	st := store.NewMemory()
	if _, ok := st.Get("k"); ok || st.Len() != 0 {
		t.Fatal("empty store not empty")
	}
	o := &scenario.Outcome{}
	st.Put("k", o)
	if got, ok := st.Get("k"); !ok || got != o || st.Len() != 1 {
		t.Fatal("store round trip failed")
	}
	o2 := &scenario.Outcome{}
	st.Put("k", o2)
	if got, _ := st.Get("k"); got != o2 || st.Len() != 1 {
		t.Fatal("overwrite failed")
	}
}

// TestConcurrentSubmissions hammers the submit path from many goroutines
// with a mix of identical and distinct scenarios — primarily a -race
// exercise of queue, store, registry and SSE fan-out.
func TestConcurrentSubmissions(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{QueueCapacity: 64, Workers: 4})
	sc := smokeScenario(t)
	sc.Run.Trials = 1
	sc.Run.Scale = 0.05

	const n = 16
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			s := sc
			s.Run.Seed = uint64(1 + i%4) // 4 distinct computations, 4x resubmitted
			body, err := json.Marshal(map[string]any{"scenario": s})
			if err != nil {
				errs <- err
				return
			}
			resp0, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			var st service.Status
			decErr := json.NewDecoder(resp0.Body).Decode(&st)
			resp0.Body.Close()
			if resp0.StatusCode != http.StatusAccepted && resp0.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("submit %d: status %d", i, resp0.StatusCode)
				return
			}
			if decErr != nil {
				errs <- decErr
				return
			}
			// Stream events to exercise concurrent subscribe/publish.
			resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			scan := bufio.NewScanner(resp.Body)
			for scan.Scan() {
				line := scan.Text()
				if strings.HasPrefix(line, "event: done") || strings.HasPrefix(line, "event: failed") {
					break
				}
			}
			errs <- scan.Err()
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Every submission either ran the engine or hit the cache. (Racing
	// identical submissions may both miss and run — duplicates are allowed,
	// lost submissions are not.)
	runs, hits := srv.Metrics().EngineRuns.Load(), srv.Metrics().CacheHits.Load()
	if runs+hits != n {
		t.Fatalf("engine runs %d + cache hits %d != %d submissions", runs, hits, n)
	}
	if runs < 4 {
		t.Fatalf("engine runs %d < 4 distinct scenarios", runs)
	}
}

// TestMalformedWorkloadFailsJobDaemonStaysUp is the headline-bugfix
// regression: a scenario that passes schema validation but whose workload
// config degenerates at run time (tasks * run.scale rounds to zero tasks —
// the class of config that used to panic inside workload.validate and take
// the worker down) must come back as a FAILED job with a diagnostic, and
// the daemon must keep serving.
func TestMalformedWorkloadFailsJobDaemonStaysUp(t *testing.T) {
	_, ts := newTestServer(t, service.Config{QueueCapacity: 4, Workers: 1})

	code, st, raw := postJob(t, ts, `{"scenario": {
		"name": "degenerate",
		"workload": {"tasks": 5},
		"run": {"trials": 1, "scale": 0.01}
	}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d (want accepted — the config is only malformed at run time): %s", code, raw)
	}
	final := waitDone(t, ts, st.ID)
	if final.State != service.StateFailed {
		t.Fatalf("job ended %q, want failed", final.State)
	}
	if !strings.Contains(final.Error, "NumTasks") {
		t.Fatalf("failure diagnostic %q does not explain the workload problem", final.Error)
	}

	// The daemon is still alive and its (sole) worker still drains jobs.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("daemon down after failed job: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d after failed job", resp.StatusCode)
	}
	code, st2, raw := postJob(t, ts, `{"name": "service_smoke"}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("follow-up submit status %d: %s", code, raw)
	}
	if got := waitDone(t, ts, st2.ID); got.State != service.StateDone {
		t.Fatalf("follow-up job ended %q (error %q) — worker lost?", got.State, got.Error)
	}
}

// TestSubmitRejectsInvalidArrivalSpecs: schema-level arrival-model errors
// are caught at submission time with a 400, never enqueued.
func TestSubmitRejectsInvalidArrivalSpecs(t *testing.T) {
	_, ts := newTestServer(t, service.Config{QueueCapacity: 4, Workers: 1})
	for name, body := range map[string]string{
		"unknown pattern": `{"scenario": {"workload": {"pattern": "fractal", "tasks": 100}}}`,
		"bad mmpp":        `{"scenario": {"workload": {"pattern": "mmpp", "tasks": 100, "mmpp": {"rates": [1], "mean_hold": [1]}}}}`,
		"path-only trace": `{"scenario": {"workload": {"pattern": "trace", "trace": {"path": "/etc/passwd"}}}}`,
	} {
		code, _, raw := postJob(t, ts, body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, code, raw)
		}
	}
}

// TestSubmitNewArrivalModels: each new model runs end to end through the
// service (tiny scale) and distinct models produce distinct cache entries.
func TestSubmitNewArrivalModels(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{QueueCapacity: 8, Workers: 2})
	for _, pattern := range []string{"poisson", "diurnal", "mmpp"} {
		body := fmt.Sprintf(`{"scenario": {
			"name": "api-%s",
			"workload": {"pattern": %q, "tasks": 15000},
			"run": {"trials": 1, "scale": 0.03}
		}}`, pattern, pattern)
		code, st, raw := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit status %d: %s", pattern, code, raw)
		}
		if final := waitDone(t, ts, st.ID); final.State != service.StateDone {
			t.Fatalf("%s: job ended %q (error %q)", pattern, final.State, final.Error)
		}
	}
	if hits := srv.Metrics().CacheHits.Load(); hits != 0 {
		t.Fatalf("distinct arrival models collided in the result cache (%d hits)", hits)
	}
}
