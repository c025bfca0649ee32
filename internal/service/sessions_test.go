package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"prunesim/internal/pet"
	"prunesim/internal/service"
)

// doJSON performs a request with a JSON body and decodes the response into
// out (unless nil), returning the status code and raw body.
func doJSON(t *testing.T, ts *httptest.Server, method, path, body string, out any) (int, string) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

// createSession registers a small 2-machine MCT session and returns its id.
func createSession(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	if body == "" {
		body = `{"platform": {"machines": 2, "heuristic": "MCT", "slots": 2}, "prune": {"enabled": true}}`
	}
	var created struct {
		SessionID string `json:"session_id"`
		Machines  int    `json:"machines"`
		TaskTypes int    `json:"task_types"`
	}
	code, raw := doJSON(t, ts, "POST", "/v1/sessions", body, &created)
	if code != http.StatusCreated {
		t.Fatalf("create session: status %d: %s", code, raw)
	}
	if created.SessionID == "" || created.Machines != 2 || created.TaskTypes == 0 {
		t.Fatalf("create session: bad response %s", raw)
	}
	return created.SessionID
}

type decision struct {
	SessionID string  `json:"session_id"`
	TaskID    int     `json:"task_id"`
	Verdict   string  `json:"verdict"`
	Reason    string  `json:"reason,omitempty"`
	Machine   int     `json:"machine"`
	Chance    float64 `json:"chance"`
	Threshold float64 `json:"threshold"`
	Started   bool    `json:"started"`
	Now       float64 `json:"now"`
}

type completion struct {
	SessionID string `json:"session_id"`
	TaskID    int    `json:"task_id"`
	State     string `json:"state"`
	OnTime    bool   `json:"on_time"`
	Stale     bool   `json:"stale"`
	Started   []int  `json:"started,omitempty"`
}

// TestSessionEndToEnd drives the whole online admission lifecycle over
// HTTP: register, stream decisions until the platform saturates, complete
// work, fail a machine, observe a stale completion, close the session.
func TestSessionEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{Workers: -1})
	id := createSession(t, ts, "")

	// First arrival onto an idle 2-machine platform must be accepted and
	// started immediately.
	var d decision
	code, raw := doJSON(t, ts, "POST", "/v1/sessions/"+id+"/decide",
		`{"type": 0, "deadline": 1e6, "now": 0}`, &d)
	if code != http.StatusOK {
		t.Fatalf("decide: status %d: %s", code, raw)
	}
	if d.Verdict != "accept" || !d.Started || d.Machine < 0 || d.SessionID != id {
		t.Fatalf("first decide: %+v", d)
	}
	first := d.TaskID

	// Keep arriving with generous deadlines until the slot caps saturate
	// the platform; the verdict must flip to a non-accept.
	accepted := []int{first}
	saturated := false
	for i := 1; i < 20 && !saturated; i++ {
		code, raw = doJSON(t, ts, "POST", "/v1/sessions/"+id+"/decide",
			fmt.Sprintf(`{"type": %d, "deadline": 1e6, "now": %d}`, i%2, i), &d)
		if code != http.StatusOK {
			t.Fatalf("decide %d: status %d: %s", i, code, raw)
		}
		switch d.Verdict {
		case "accept":
			accepted = append(accepted, d.TaskID)
		case "defer", "drop":
			saturated = true
			if d.Reason == "" {
				t.Fatalf("non-accept decision without reason: %+v", d)
			}
		default:
			t.Fatalf("decide %d: unknown verdict %q", i, d.Verdict)
		}
	}
	if !saturated {
		t.Fatal("20 generous arrivals never saturated a 2-machine platform with default slots")
	}

	// Completing the first task frees its machine; the response reports
	// which queued task started in its place.
	var c completion
	code, raw = doJSON(t, ts, "POST", "/v1/sessions/"+id+"/complete",
		`{"task_id": 0, "now": 30}`, &c)
	if code != http.StatusOK {
		t.Fatalf("complete: status %d: %s", code, raw)
	}
	if c.Stale || !c.OnTime || c.TaskID != first {
		t.Fatalf("complete: %+v (%s)", c, raw)
	}
	if len(c.Started) == 0 {
		t.Fatalf("freed machine started nothing: %s", raw)
	}

	// Completing a task the session never issued is a 404 with the task
	// identified in the envelope.
	code, raw = doJSON(t, ts, "POST", "/v1/sessions/"+id+"/complete",
		`{"task_id": 99999, "now": 31}`, nil)
	if code != http.StatusNotFound || !strings.Contains(raw, `"task_id":99999`) {
		t.Fatalf("unknown task: status %d body %s", code, raw)
	}

	// Fail machine 0: its queue is orphaned, and completing an orphan is
	// acknowledged as stale without corrupting state.
	var failed struct {
		Orphaned []struct {
			TaskID int `json:"task_id"`
		} `json:"orphaned"`
	}
	code, raw = doJSON(t, ts, "POST", "/v1/sessions/"+id+"/machines/0/fail",
		`{"now": 32}`, &failed)
	if code != http.StatusOK {
		t.Fatalf("fail machine: status %d: %s", code, raw)
	}
	if len(failed.Orphaned) == 0 {
		t.Fatalf("failing a loaded machine orphaned nothing: %s", raw)
	}
	code, raw = doJSON(t, ts, "POST", "/v1/sessions/"+id+"/complete",
		fmt.Sprintf(`{"task_id": %d, "now": 33}`, failed.Orphaned[0].TaskID), &c)
	if code != http.StatusOK || !c.Stale {
		t.Fatalf("orphan completion: status %d stale %v: %s", code, c.Stale, raw)
	}
	code, raw = doJSON(t, ts, "POST", "/v1/sessions/"+id+"/machines/0/rejoin", "", nil)
	if code != http.StatusOK {
		t.Fatalf("rejoin: status %d: %s", code, raw)
	}

	// Snapshot reflects the traffic.
	var snap struct {
		SessionID string `json:"session_id"`
		Counters  struct {
			Decisions        uint64 `json:"decisions"`
			Accepted         uint64 `json:"accepted"`
			StaleCompletions uint64 `json:"stale_completions"`
		} `json:"counters"`
		Machines []struct {
			Down bool `json:"down"`
		} `json:"machines"`
	}
	code, raw = doJSON(t, ts, "GET", "/v1/sessions/"+id, "", &snap)
	if code != http.StatusOK {
		t.Fatalf("snapshot: status %d: %s", code, raw)
	}
	if snap.Counters.Decisions == 0 || snap.Counters.Accepted == 0 || snap.Counters.StaleCompletions != 1 {
		t.Fatalf("snapshot counters: %s", raw)
	}
	if len(snap.Machines) != 2 || snap.Machines[0].Down {
		t.Fatalf("snapshot machines after rejoin: %s", raw)
	}

	// The session appears in the listing, then closing it turns further
	// access into 410 session_expired.
	var listed struct {
		Sessions []struct {
			ID string `json:"session_id"`
		} `json:"sessions"`
	}
	code, raw = doJSON(t, ts, "GET", "/v1/sessions", "", &listed)
	if code != http.StatusOK || len(listed.Sessions) != 1 || listed.Sessions[0].ID != id {
		t.Fatalf("list: status %d body %s", code, raw)
	}
	code, raw = doJSON(t, ts, "DELETE", "/v1/sessions/"+id, "", nil)
	if code != http.StatusOK {
		t.Fatalf("delete: status %d: %s", code, raw)
	}
	code, raw = doJSON(t, ts, "GET", "/v1/sessions/"+id, "", nil)
	if code != http.StatusGone || !strings.Contains(raw, "session_expired") {
		t.Fatalf("closed session: status %d body %s", code, raw)
	}
	if got := srv.Metrics().Decisions.Load(); got == 0 {
		t.Fatalf("decisions metric not incremented")
	}
}

// TestSessionDecideBatch checks the batch variant shares one clock and
// returns one decision per task in order.
func TestSessionDecideBatch(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: -1})
	id := createSession(t, ts, "")
	var out struct {
		Decisions []decision `json:"decisions"`
	}
	code, raw := doJSON(t, ts, "POST", "/v1/sessions/"+id+"/decide/batch",
		`{"tasks": [{"type": 0, "deadline": 1e6}, {"type": 1, "deadline": 1e6}, {"type": 0, "deadline": 1e6}], "now": 0}`, &out)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, raw)
	}
	if len(out.Decisions) != 3 {
		t.Fatalf("batch: %d decisions, want 3: %s", len(out.Decisions), raw)
	}
	for i, d := range out.Decisions {
		if d.Now != 0 {
			t.Fatalf("decision %d: now %v, want shared clock 0", i, d.Now)
		}
		if i > 0 && d.TaskID != out.Decisions[i-1].TaskID+1 {
			t.Fatalf("batch task IDs not FCFS-sequential: %s", raw)
		}
	}
	if code, raw = doJSON(t, ts, "POST", "/v1/sessions/"+id+"/decide/batch",
		`{"tasks": []}`, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d: %s", code, raw)
	}
}

// TestSessionWallClock omits "now" entirely: the service must keep time
// itself (seconds since session creation) and decisions must still flow.
func TestSessionWallClock(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: -1})
	id := createSession(t, ts, "")
	var d decision
	code, raw := doJSON(t, ts, "POST", "/v1/sessions/"+id+"/decide",
		`{"type": 0, "deadline": 1e6}`, &d)
	if code != http.StatusOK || d.Verdict != "accept" {
		t.Fatalf("wall-clock decide: status %d: %s", code, raw)
	}
	if d.Now < 0 || d.Now > 60 {
		t.Fatalf("wall-clock now %v implausible", d.Now)
	}
}

// TestSessionExpiry covers the TTL path: an idle session is reaped by
// Sweep, later access is 410, and the expiry metric moves.
func TestSessionExpiry(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{Workers: -1, SessionTTL: 10 * time.Millisecond})
	id := createSession(t, ts, "")
	time.Sleep(25 * time.Millisecond)
	if n := srv.Sessions().Sweep(); n != 1 {
		t.Fatalf("sweep reaped %d sessions, want 1", n)
	}
	code, raw := doJSON(t, ts, "GET", "/v1/sessions/"+id, "", nil)
	if code != http.StatusGone || !strings.Contains(raw, "session_expired") {
		t.Fatalf("expired session: status %d body %s", code, raw)
	}
	if got := srv.Metrics().SessionsExpired.Load(); got != 1 {
		t.Fatalf("sessions_expired = %d, want 1", got)
	}
}

// TestSessionCapacity: the registry sheds session creates over MaxSessions
// with 429 + Retry-After, mirroring the job queue's backpressure contract.
func TestSessionCapacity(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: -1, MaxSessions: 1})
	createSession(t, ts, "")
	req, err := http.NewRequest("POST", ts.URL+"/v1/sessions",
		strings.NewReader(`{"platform": {"machines": 2, "heuristic": "MCT"}, "prune": {}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity create: status %d: %s", resp.StatusCode, buf.String())
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(buf.String(), "invalid_session") {
		t.Fatalf("429 body: %s", buf.String())
	}
}

// TestSessionCapacityWhileExpiring: at the session cap, a create reclaims
// a session idle past its TTL instead of answering 429, and the reclaimed
// ID answers 410. Decide traffic on a live session is unaffected while a
// session beside it expires under concurrent listings (run under -race).
func TestSessionCapacityWhileExpiring(t *testing.T) {
	t.Run("reclaim", func(t *testing.T) {
		srv, ts := newTestServer(t, service.Config{Workers: -1, MaxSessions: 1, SessionTTL: 10 * time.Millisecond})
		old := createSession(t, ts, "")
		time.Sleep(25 * time.Millisecond)
		createSession(t, ts, "")
		code, raw := doJSON(t, ts, "GET", "/v1/sessions/"+old, "", nil)
		if code != http.StatusGone || !strings.Contains(raw, "session_expired") {
			t.Fatalf("reclaimed session: status %d body %s", code, raw)
		}
		if got := srv.Metrics().SessionsExpired.Load(); got != 1 {
			t.Fatalf("sessions_expired = %d, want 1", got)
		}
	})
	t.Run("traffic", func(t *testing.T) {
		const ttl = 100 * time.Millisecond
		srv, ts := newTestServer(t, service.Config{Workers: -1, MaxSessions: 2, SessionTTL: ttl})
		live := createSession(t, ts, "")
		idle := createSession(t, ts, "")
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					code, raw := doJSON(t, ts, "POST", "/v1/sessions/"+live+"/decide",
						fmt.Sprintf(`{"type": %d, "deadline": 1e9, "now": %d}`, w%2, i), nil)
					if code != http.StatusOK {
						t.Errorf("worker %d decide: status %d: %s", w, code, raw)
						return
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if code, raw := doJSON(t, ts, "GET", "/v1/sessions", "", nil); code != http.StatusOK {
					t.Errorf("list: status %d: %s", code, raw)
					return
				}
			}
		}()
		time.Sleep(3 * ttl)
		close(stop)
		wg.Wait()
		if code, raw := doJSON(t, ts, "GET", "/v1/sessions/"+idle, "", nil); code != http.StatusGone {
			t.Fatalf("idle session: status %d body %s", code, raw)
		}
		if code, raw := doJSON(t, ts, "GET", "/v1/sessions/"+live, "", nil); code != http.StatusOK {
			t.Fatalf("live session: status %d body %s", code, raw)
		}
		if got := srv.Metrics().SessionsExpired.Load(); got != 1 {
			t.Fatalf("sessions_expired = %d, want 1", got)
		}
	})
}

// TestSessionConcurrentTraffic hammers one session from many goroutines —
// decides, completions, snapshots, listings — and checks nothing panics,
// wedges or corrupts counters. Run under -race this is the session
// serialization proof.
func TestSessionConcurrentTraffic(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{Workers: -1})
	id := createSession(t, ts, "")
	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []int
			for i := 0; i < iters; i++ {
				var d decision
				code, raw := doJSON(t, ts, "POST", "/v1/sessions/"+id+"/decide",
					fmt.Sprintf(`{"type": %d, "deadline": 1e6}`, (w+i)%2), &d)
				if code != http.StatusOK {
					t.Errorf("worker %d decide: status %d: %s", w, code, raw)
					return
				}
				if d.Verdict == "accept" {
					mine = append(mine, d.TaskID)
				}
				if i%3 == 2 && len(mine) > 0 {
					// Complete one of ours; racing evictions can make it
					// stale or already-gone (404) — both are legal.
					code, raw = doJSON(t, ts, "POST", "/v1/sessions/"+id+"/complete",
						fmt.Sprintf(`{"task_id": %d}`, mine[0]), nil)
					if code != http.StatusOK && code != http.StatusNotFound {
						t.Errorf("worker %d complete: status %d: %s", w, code, raw)
						return
					}
					mine = mine[1:]
				}
				if i%7 == 6 {
					if code, raw = doJSON(t, ts, "GET", "/v1/sessions/"+id, "", nil); code != http.StatusOK {
						t.Errorf("worker %d snapshot: status %d: %s", w, code, raw)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := srv.Metrics().Decisions.Load(); got != workers*iters {
		t.Fatalf("decisions metric %d, want %d", got, workers*iters)
	}
}

// TestSessionsAndJobsShareMatrixCache creates sessions and compiles jobs
// concurrently over the same three PET specs (run under -race in CI). Job
// scenarios and session platforms differ in heuristic and machine count
// but not in profile or PET parameters, so the engine ends up holding
// exactly three matrices, one per spec, shared by both.
func TestSessionsAndJobsShareMatrixCache(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{Workers: 2, Parallelism: 1, SessionTTL: -1})
	const specs = 3
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				body := fmt.Sprintf(`{"platform": {"machines": %d, "pet": {"samples": 20, "seed": %d}}, "prune": {"enabled": true}}`,
					2+w, 1+(w+i)%specs)
				var created struct {
					SessionID string `json:"session_id"`
				}
				if code, raw := doJSON(t, ts, "POST", "/v1/sessions", body, &created); code != http.StatusCreated {
					t.Errorf("create %s: status %d: %s", body, code, raw)
					return
				}
				if code, raw := doJSON(t, ts, "DELETE", "/v1/sessions/"+created.SessionID, "", nil); code != http.StatusOK {
					t.Errorf("delete %s: status %d: %s", created.SessionID, code, raw)
				}
				if st := srv.Engine().MatrixCacheStats(); st.Entries > specs {
					t.Errorf("cache holds %d matrices for %d specs", st.Entries, specs)
				}
			}
		}(w)
	}
	jobs := make([]string, 2*specs)
	for j := range jobs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			sc := smokeScenario(t)
			sc.Run.Trials, sc.Run.Seed = 1, uint64(100+j)
			sc.Platform.PET = &pet.Params{Samples: 20, Seed: uint64(1 + j%specs)}
			raw, err := json.Marshal(sc)
			if err != nil {
				t.Error(err)
				return
			}
			var st service.Status
			if code, out := doJSON(t, ts, "POST", "/v1/jobs", `{"scenario": `+string(raw)+`}`, &st); code != http.StatusAccepted {
				t.Errorf("submit job %d: status %d: %s", j, code, out)
				return
			}
			jobs[j] = st.ID
		}(j)
	}
	wg.Wait()
	for _, id := range jobs {
		if id != "" {
			if st := waitDone(t, ts, id); st.State != service.StateDone {
				t.Errorf("job %s ended %s: %s", id, st.State, st.Error)
			}
		}
	}
	if st := srv.Engine().MatrixCacheStats(); st.Entries != specs {
		t.Fatalf("cache holds %d matrices after sessions and jobs over %d specs: %+v", st.Entries, specs, st)
	}
}
