package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"prunesim/internal/sim"
	"prunesim/internal/store"
	"prunesim/internal/store/conformance"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {250_000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeReportsSampleCountAndTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200 down to 1
	}
	s := summarize(xs)
	want := latencySummary{Samples: 200, P50: 100, TailPct: 95, Tail: 190}
	if s != want {
		t.Errorf("summarize = %+v, want %+v", s, want)
	}
	if few := summarize([]float64{3, 1, 2}); few.TailPct != 100 || few.Tail != 3 || few.Samples != 3 {
		t.Errorf("summarize of 3 samples = %+v, want the maximum at percentile 100", few)
	}
}

func TestTallyCountsRefusedAndErroredItemsAsFailed(t *testing.T) {
	var tl tally
	steps := []struct {
		status int
		err    error
		output bool
		ok     bool
	}{
		{http.StatusOK, nil, true, true},
		{http.StatusAccepted, nil, true, true},
		{0, nil, true, true}, // in process, no HTTP exchange
		{http.StatusTooManyRequests, nil, true, false},
		{http.StatusServiceUnavailable, nil, true, false},
		{0, errors.New("connection reset"), true, false},
		{http.StatusOK, nil, false, false},
	}
	for i, s := range steps {
		if got := tl.record(s.status, s.err, s.output); got != s.ok {
			t.Errorf("step %d: record = %v, want %v", i, got, s.ok)
		}
	}
	if tl.attempted != 7 || tl.failed != 4 {
		t.Errorf("tally = %+v, want 7 attempted, 4 failed", tl)
	}
	if got := tl.failedRatio(); got != 4.0/7 {
		t.Errorf("failedRatio = %v, want 4/7", got)
	}
}

func TestTimedStoreConformance(t *testing.T) {
	for _, traced := range []bool{false, true} {
		wrap := func(inner store.Store) store.Store {
			s := &timedStore{inner: inner}
			if traced {
				s.tr.Store(newTracer())
			}
			return s
		}
		t.Run(map[bool]string{false: "untraced", true: "traced"}[traced], func(t *testing.T) {
			conformance.Run(t, func(t *testing.T) store.Store {
				s := wrap(store.NewMemory())
				t.Cleanup(func() { s.Close() })
				return s
			})
			conformance.RunDurable(t, func(t *testing.T, dir string) store.Store {
				d, err := store.OpenDisk(dir)
				if err != nil {
					t.Fatal(err)
				}
				return wrap(d)
			})
		})
	}
}

func TestTimedStoreCountsCalls(t *testing.T) {
	s := &timedStore{inner: store.NewMemory()}
	s.tr.Store(newTracer())
	s.Put("a", conformance.Outcome(1))
	s.Get("a")
	s.Get("b")
	if s.get.calls.Load() != 2 || s.put.calls.Load() != 1 || s.hits.Load() != 1 {
		t.Errorf("get %d put %d hits %d, want 2, 1, 1", s.get.calls.Load(), s.put.calls.Load(), s.hits.Load())
	}
}

// echoHandler answers with what it saw of the request, and streams.
func echoHandler(t *testing.T) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Seen", r.Method+" "+r.URL.String()+" "+r.Header.Get("X-Client"))
		w.WriteHeader(http.StatusTeapot)
		w.Write(body)
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("wrapped ResponseWriter lost http.Flusher")
			return
		}
		f.Flush()
		io.WriteString(w, "\nevent: done\n")
	})
}

func TestTimedHandlerPassesEveryCallThrough(t *testing.T) {
	do := func(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		req.Header.Set("X-Client", "c1")
		req.Header.Set(spanHeader, spanHeaderValue(7, 3))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	var timer layerTimer
	for _, traced := range []bool{false, true} {
		th := &timedHandler{name: "test", next: echoHandler(t), timer: func(*http.Request) *layerTimer { return &timer }}
		tr := newTracer()
		if traced {
			th.tr.Store(tr)
		}
		for _, c := range []struct{ method, target, body string }{
			{"POST", "/v1/sessions/x/decide", `{"type":1}`},
			{"GET", "/v1/jobs/s0-j000001/events?x=1", ""},
		} {
			want := do(echoHandler(t), c.method, c.target, c.body)
			got := do(th, c.method, c.target, c.body)
			if got.Code != want.Code || got.Body.String() != want.Body.String() ||
				!reflect.DeepEqual(got.Header(), want.Header()) || got.Flushed != want.Flushed {
				t.Errorf("traced=%v %s %s: wrapped response %d %q %v differs from %d %q %v", traced, c.method, c.target,
					got.Code, got.Body, got.Header(), want.Code, want.Body, want.Header())
			}
		}
		if traced {
			if timer.calls.Load() != 2 || len(tr.spans) != 2 || tr.spans[0].Item != 7 || tr.spans[0].Parent != 3 {
				t.Errorf("traced handler recorded %d calls, spans %+v", timer.calls.Load(), tr.spans)
			}
		} else if timer.calls.Load() != 0 {
			t.Errorf("untraced handler timed %d calls", timer.calls.Load())
		}
	}
}

func TestSimChecksCountWrongDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulation trials")
	}
	e := mustSetup(t, "sim-batch")
	p, err := e.measure(time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.verify(p)
	if p.items.attempted == 0 || p.items.failed != 0 {
		t.Fatalf("untampered phase: %+v, %v", p.items, p.errs)
	}
	se := e.(*simEnv)
	se.digests[itemKey{0, 0}] = "0000000000000000"
	e.verify(p)
	if p.items.failed != 1 {
		t.Errorf("a wrong pinned digest counted %d failures, want 1", p.items.failed)
	}
	r := trialRecord{key: itemKey{0, 1}, res: &sim.Result{Counted: 10, OnTime: 3}}
	if err := se.checkTrial(r, true); err == nil {
		t.Error("a result whose outcomes do not partition its counted tasks passed")
	}
}

func TestAdmissionChecksCountWrongVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("serves HTTP")
	}
	e := mustSetup(t, "admission-http")
	p, err := e.measure(200*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.verify(p)
	if p.items.attempted == 0 || p.items.failed != 0 {
		t.Fatalf("untampered phase: %+v, %v", p.items, p.errs)
	}
	ae := e.(*admissionEnv)
	run := &ae.runs[0][0]
	run.digest ^= 1
	e.verify(p)
	if p.items.failed != run.requests {
		t.Errorf("a wrong verdict digest counted %d failures, want the episode's %d requests", p.items.failed, run.requests)
	}
}

func TestJobsChecksCountMismatchedHits(t *testing.T) {
	if testing.Short() {
		t.Skip("serves HTTP")
	}
	e := mustSetup(t, "jobs-http")
	p, err := e.measure(300*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.verify(p)
	if p.items.attempted == 0 || p.items.failed != 0 || p.layers["jobs.hit_latency_p50_ms"] <= 0 {
		t.Fatalf("untampered phase: %+v, %v", p.items, p.errs)
	}
	je := e.(*jobsEnv)
	var a, b int = -1, -1
	for i := range je.pairs {
		for j := range je.pairs {
			if je.pairs[i][1] != je.pairs[j][1] {
				a, b = i, j
			}
		}
	}
	if a < 0 {
		t.Fatal("no two hits of different misses to swap")
	}
	je.pairs = [][2]string{{je.pairs[a][0], je.pairs[b][1]}}
	e.verify(p)
	if p.items.failed != 1 {
		t.Errorf("a hit compared against the wrong miss counted %d failures, want 1", p.items.failed)
	}

	// cache_hit must be set exactly on resubmissions.
	submit := func(doc []byte, wantHit bool) error {
		item := jobItem{scenario: doc, hit: wantHit}
		_, err := je.submitJob(je.clients[0], apiKeys[0], nil, 0, &item)
		return err
	}
	first, err := je.freshScenario(99, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := je.freshScenario(99, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := submit(first, false); err != nil {
		t.Fatalf("fresh submission: %v", err)
	}
	if err := submit(first, false); err == nil {
		t.Error("a resubmission expected to miss passed the cache_hit check")
	}
	if err := submit(second, true); err == nil {
		t.Error("a fresh submission expected to hit passed the cache_hit check")
	}
}

func mustSetup(t *testing.T, name string) env {
	t.Helper()
	e, err := workloads[name](name, options{workload: name, seed: 7, out: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

func TestRunRejectsBadFlagsWithoutAReport(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "sim-batch", "-trace", "2"},
		{"-workload", "sim-batch", "-seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q; want a nonzero exit and no report", args, code, out.String())
		}
	}
}

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json at the repository
// root in step with the workloads and metrics this program reports.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}
