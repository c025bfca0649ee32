package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"prunesim/internal/scenario"
	"prunesim/internal/sim"
	"prunesim/internal/stats"
	"prunesim/internal/timeline"
)

// steppedEngine is a fake engine whose trials complete only when the test
// releases them, so mid-flight states are observable without sleeps. Each
// released trial reports a fixed outcome breakdown.
type steppedEngine struct {
	step chan struct{}
}

func (e steppedEngine) RunWithProgress(s scenario.Scenario, onTrial func(scenario.TrialProgress)) (*scenario.Outcome, error) {
	results := make([]*sim.Result, s.Run.Trials)
	robs := make([]float64, s.Run.Trials)
	for i := 0; i < s.Run.Trials; i++ {
		<-e.step
		r := &sim.Result{
			TotalTasks: 100, Counted: 100, OnTime: 70, Late: 10,
			DroppedReactive: 10, DroppedProactive: 5, Unfinished: 5,
			Deferrals: 3, Robustness: 70,
		}
		results[i] = r
		robs[i] = r.Robustness
		if onTrial != nil {
			onTrial(scenario.TrialProgress{
				Trial: i, Done: i + 1, Total: s.Run.Trials,
				Robustness: r.Robustness, DurationSeconds: 0.001,
				Counts: timeline.ResultCounts(r),
			})
		}
	}
	return &scenario.Outcome{Scenario: s, Robustness: stats.Summarize(robs), Results: results}, nil
}

// getTimeline fetches and decodes GET /v1/jobs/{id}/timeline.
func getTimeline(t *testing.T, ts *httptest.Server, id string) (State, *timeline.Snapshot) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline status %d", resp.StatusCode)
	}
	var out struct {
		JobID    string             `json:"job_id"`
		State    State              `json:"state"`
		Timeline *timeline.Snapshot `json:"timeline"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.JobID != id {
		t.Fatalf("timeline for job %q, want %q", out.JobID, id)
	}
	if out.Timeline == nil {
		t.Fatal("nil timeline payload")
	}
	return out.State, out.Timeline
}

// TestTimelineEndpointInFlight is the acceptance e2e: an in-flight job's
// timeline endpoint serves a populated binned time-series and
// robustness-so-far that advance as trials complete, then freezes into the
// final aggregate when the job is done.
func TestTimelineEndpointInFlight(t *testing.T) {
	eng := steppedEngine{step: make(chan struct{}, 8)}
	s := New(Config{QueueCapacity: 4, Workers: 1})
	defer s.Close()
	s.engine = eng
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sc := scenario.Default()
	sc.Run.Trials = 4
	job, err := s.Submit(sc)
	if err != nil {
		t.Fatal(err)
	}

	// Before any trial: the endpoint answers with an empty-but-valid
	// snapshot that still reports the trial budget.
	_, snap := getTimeline(t, ts, job.id)
	if snap.TrialsDone != 0 || snap.TrialsTotal != 4 {
		t.Fatalf("pre-run snapshot %+v", snap)
	}

	// Release two trials and wait for the aggregate to reflect them.
	eng.step <- struct{}{}
	eng.step <- struct{}{}
	deadline := time.Now().Add(10 * time.Second)
	var state State
	for {
		state, snap = getTimeline(t, ts, job.id)
		if snap.TrialsDone == 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if snap.TrialsDone != 2 {
		t.Fatalf("in-flight snapshot never reached 2 trials: %+v", snap)
	}
	if state != StateRunning {
		t.Fatalf("state %q mid-flight", state)
	}
	if snap.Totals.Counted != 200 || snap.Totals.OnTime != 140 {
		t.Fatalf("in-flight totals %+v", snap.Totals)
	}
	if snap.Robustness.Mean != 70 || snap.Robustness.N != 2 {
		t.Fatalf("robustness-so-far %+v", snap.Robustness)
	}
	if len(snap.Bins) == 0 {
		t.Fatal("in-flight snapshot has no time bins")
	}
	var binned int
	for _, b := range snap.Bins {
		binned += b.Trials
	}
	if binned != 2 {
		t.Fatalf("bins hold %d trials, want 2", binned)
	}
	if snap.TrialDuration == nil || snap.TrialDuration.N != 2 {
		t.Fatalf("trial duration summary %+v", snap.TrialDuration)
	}

	// Release the rest; once done, the endpoint serves the final aggregate.
	eng.step <- struct{}{}
	eng.step <- struct{}{}
	st := waitTerminal(t, s, job.id)
	if st.State != StateDone {
		t.Fatalf("job ended %q", st.State)
	}
	state, snap = getTimeline(t, ts, job.id)
	if state != StateDone || snap.TrialsDone != 4 || snap.Totals.Counted != 400 {
		t.Fatalf("final snapshot state=%q %+v", state, snap)
	}
	if snap.Rates.OnTimePercent != 70 || snap.Rates.DroppedReactivePercent != 10 {
		t.Fatalf("final rates %+v", snap.Rates)
	}
}

// TestTimelineCacheHitRebuild: a cache-served job never ran here, so its
// timeline is rebuilt deterministically from the stored results — totals
// and robustness quantiles populated, no time bins (completion times do
// not survive the store).
func TestTimelineCacheHitRebuild(t *testing.T) {
	eng := steppedEngine{step: make(chan struct{}, 8)}
	s := New(Config{QueueCapacity: 4, Workers: 1})
	defer s.Close()
	s.engine = eng
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sc := scenario.Default()
	sc.Run.Trials = 3
	first, err := s.Submit(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		eng.step <- struct{}{}
	}
	if st := waitTerminal(t, s, first.id); st.State != StateDone {
		t.Fatalf("seed job ended %q", st.State)
	}

	second, err := s.Submit(sc)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.Status(second.id)
	if !st.CacheHit {
		t.Fatalf("resubmission not a cache hit: %+v", st)
	}
	state, snap := getTimeline(t, ts, second.id)
	if state != StateDone {
		t.Fatalf("cache-hit job state %q", state)
	}
	if snap.TrialsDone != 3 || snap.Totals.Counted != 300 || snap.Robustness.Mean != 70 {
		t.Fatalf("rebuilt snapshot %+v", snap)
	}
	if len(snap.Bins) != 0 {
		t.Fatalf("rebuilt snapshot has %d bins, want 0 (no stored completion times)", len(snap.Bins))
	}
	if snap.TrialDuration != nil {
		t.Fatalf("rebuilt snapshot has duration summary %+v", snap.TrialDuration)
	}

	// The rebuild is a deterministic sorted fold: two fetches agree byte
	// for byte.
	_, again := getTimeline(t, ts, second.id)
	a, _ := json.Marshal(snap)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatalf("rebuilt snapshots diverge:\n%s\nvs\n%s", a, b)
	}
}

func TestTimelineUnknownJob(t *testing.T) {
	s := New(Config{Workers: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/j999999/timeline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job timeline status %d", resp.StatusCode)
	}
}
