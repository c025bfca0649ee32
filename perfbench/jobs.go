package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"prunesim/examples/scenarios"
	"prunesim/internal/scenario"
	"prunesim/internal/service"
	"prunesim/internal/shard"
	"prunesim/internal/store"
	"prunesim/internal/tenant"
)

// Jobs-http: a shard.Router front door over two in-process shard servers,
// each with its own ID prefix, one worker and a store.Disk in a temporary
// directory. Closed-loop clients submit small inline scenarios and read
// /v1/jobs/{id}/events until done: one fresh scenario (a new seed: engine
// run and disk Put) to every resubmissionsPerFresh resubmissions of
// earlier ones (cache hit: disk Get).

const (
	// resubmissionsPerFresh keeps misses to about a third of the clients'
	// time: a miss pays an fsync on a shared disk, whose stalls otherwise
	// swing items_per_s by 20% between runs of the same code.
	resubmissionsPerFresh = 7
	shardCount            = 2
	// warmupJobs is how many jobs each client runs during set-up.
	warmupJobs = 200
	// verifyPairs bounds the hit/miss pairs whose outcome and trials.csv
	// are compared byte for byte after a phase.
	verifyPairs = 64
)

// apiKeys are the two tenants' keys; their limits never bind.
var apiKeys = []string{"perfbench-key-a", "perfbench-key-b"}

var unboundLimits = tenant.Limits{RateQPS: 1e9, Burst: 1e9, MaxInFlight: 1 << 20}

// shardServer is one in-process shard behind the front door.
type shardServer struct {
	svc     *service.Server
	store   *timedStore // nil in an untraced run
	handler *timedHandler
	srv     *http.Server
	served  chan struct{}
}

type jobsEnv struct {
	seed    uint64
	base    scenario.Scenario
	dir     string
	shards  []*shardServer
	router  *timedHandler
	srv     *http.Server
	served  chan struct{}
	url     string
	clients []*http.Client
	phases  int // phases measured so far; fresh seeds never repeat across phases

	routerT, backendT layerTimer
	pairs             [][2]string // (hit job, miss job) IDs of the last phase
}

// serve starts an HTTP server for h on a loopback port.
func serve(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	srv := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	return srv, "http://" + ln.Addr().String(), served, nil
}

func setupJobs(_ string, o options) (env, error) {
	lib, err := scenarios.Library()
	if err != nil {
		return nil, err
	}
	e := &jobsEnv{seed: o.seed}
	for _, s := range lib {
		if s.Name == "service_smoke" {
			e.base = s
		}
	}
	if e.base.Name == "" {
		return nil, errors.New("scenario library lacks service_smoke")
	}
	e.base.Run.Parallelism = 1
	tmp := filepath.Join(o.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	if e.dir, err = os.MkdirTemp(tmp, "jobs-"); err != nil {
		return nil, err
	}
	if err := e.start(o.trace); err != nil {
		e.close()
		return nil, err
	}
	// Warm-up: warmupJobs jobs per client, through every layer the timed
	// phase reaches.
	if _, err := e.run(warmupJobs, nil, time.Time{}); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

// start brings up the shards and the front door. Store decorators are
// installed only for a traced run, so the untraced run measures the bare
// program.
func (e *jobsEnv) start(traced bool) error {
	var backends []string
	for i := 0; i < shardCount; i++ {
		disk, err := store.OpenDisk(filepath.Join(e.dir, fmt.Sprintf("s%d", i)))
		if err != nil {
			return err
		}
		keys := make([]tenant.KeyEntry, len(apiKeys))
		for k, key := range apiKeys {
			keys[k] = tenant.KeyEntry{Key: key, Name: fmt.Sprintf("tenant-%d", k), Limits: unboundLimits}
		}
		tenants, err := tenant.NewRegistry(tenant.Config{Keys: keys})
		if err != nil {
			disk.Close()
			return err
		}
		sh := &shardServer{}
		var st store.Store = disk
		if traced {
			sh.store = &timedStore{inner: disk}
			st = sh.store
		}
		sh.svc = service.New(service.Config{
			Workers:     1,
			Parallelism: 1,
			Store:       st,
			Tenants:     tenants,
			IDPrefix:    fmt.Sprintf("s%d-", i),
			ShardIndex:  i,
			ShardCount:  shardCount,
		})
		sh.handler = &timedHandler{name: "service.Handler", next: sh.svc.Handler(), timer: func(*http.Request) *layerTimer { return &e.backendT }}
		e.shards = append(e.shards, sh)
		var url string
		if sh.srv, url, sh.served, err = serve(sh.handler); err != nil {
			return err
		}
		backends = append(backends, url)
	}
	rt, err := shard.NewRouter(shard.RouterConfig{Backends: backends})
	if err != nil {
		return err
	}
	e.router = &timedHandler{name: "shard.Router", next: rt.Handler(), timer: func(*http.Request) *layerTimer { return &e.routerT }}
	if e.srv, e.url, e.served, err = serve(e.router); err != nil {
		return err
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		e.clients = append(e.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}})
	}
	return nil
}

// jobItem is one submitted job as a client saw it.
type jobItem struct {
	id       string
	hit      bool
	latency  time.Duration
	scenario []byte // the submitted scenario document
	missID   string // for a resubmission: the job that computed the outcome
}

// clientResult is what one client's loop produced.
type clientResult struct {
	items     tally
	jobs      []jobItem
	status429 int
	errs      int
	rtNS      int64
}

// run drives every client for n items each (n > 0) or until deadline.
func (e *jobsEnv) run(n int, tr *tracer, deadline time.Time) ([]clientResult, error) {
	e.phases++
	results := make([]clientResult, len(e.clients))
	var wg sync.WaitGroup
	for i := range e.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.clientLoop(i, n, tr, deadline, &results[i])
		}(i)
	}
	wg.Wait()
	var errs []error
	for _, r := range results {
		if r.items.failed > 0 && n > 0 {
			errs = append(errs, fmt.Errorf("%d of %d jobs failed", r.items.failed, r.items.attempted))
		}
	}
	return results, errors.Join(errs...)
}

// freshScenario is client c's k-th fresh scenario of the current phase.
func (e *jobsEnv) freshScenario(c, k int) ([]byte, error) {
	s := e.base
	s.Run.Seed = splitmix(e.seed*0x9e3779b97f4a7c15^uint64(e.phases)<<48^uint64(c)<<32^uint64(k)) | 1
	return json.Marshal(s)
}

func (e *jobsEnv) clientLoop(c, n int, tr *tracer, deadline time.Time, res *clientResult) {
	client := e.clients[c]
	key := apiKeys[c%len(apiKeys)]
	rng := splitmix(e.seed ^ uint64(c+1)<<40 ^ uint64(e.phases))
	var misses []jobItem
	for k := 0; n > 0 && k < n || n == 0 && time.Now().Before(deadline); k++ {
		var item jobItem
		var status int
		var err error
		if k%(resubmissionsPerFresh+1) == 0 || len(misses) == 0 {
			item.scenario, err = e.freshScenario(c, k)
		} else {
			rng = splitmix(rng)
			m := misses[rng%uint64(len(misses))]
			item.scenario, item.missID, item.hit = m.scenario, m.id, true
		}
		if err == nil {
			status, err = e.submitJob(client, key, tr, int64(c)<<40|int64(k), &item)
			res.rtNS += int64(item.latency)
		}
		if status == http.StatusTooManyRequests {
			res.status429++
		}
		if !res.items.record(status, err, true) {
			res.errs++
			continue
		}
		if !item.hit {
			misses = append(misses, item)
		}
		res.jobs = append(res.jobs, item)
	}
}

// submitJob posts one scenario through the front door and follows its
// event stream to done. It returns the submission's HTTP status.
func (e *jobsEnv) submitJob(client *http.Client, key string, tr *tracer, itemID int64, item *jobItem) (int, error) {
	body, err := json.Marshal(service.SubmitRequest{Scenario: item.scenario})
	if err != nil {
		return 0, err
	}
	var spanID int64
	var start int64
	if tr != nil {
		spanID, start = tr.id(), tr.now()
	}
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, e.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	e.label(req, key, tr, itemID, spanID)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, fmt.Errorf("submit: status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var st struct {
		ID       string `json:"id"`
		CacheHit bool   `json:"cache_hit"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return resp.StatusCode, fmt.Errorf("submit: %w", err)
	}
	if st.CacheHit != item.hit {
		return resp.StatusCode, fmt.Errorf("job %s: cache_hit %v on a %s", st.ID, st.CacheHit, map[bool]string{true: "resubmission", false: "fresh scenario"}[item.hit])
	}
	item.id = st.ID
	done, err := e.awaitDone(client, key, tr, itemID, spanID, st.ID)
	item.latency = time.Since(t0)
	if tr != nil {
		tr.add(span{ID: spanID, Name: "client.job", Item: itemID, Start: start, End: start + int64(item.latency)})
	}
	if err != nil {
		return resp.StatusCode, err
	}
	if done.CacheHit != item.hit {
		return resp.StatusCode, fmt.Errorf("job %s: done event cache_hit %v, want %v", st.ID, done.CacheHit, item.hit)
	}
	return resp.StatusCode, nil
}

func (e *jobsEnv) label(req *http.Request, key string, tr *tracer, itemID, spanID int64) {
	req.Header.Set("Authorization", "Bearer "+key)
	if tr != nil {
		req.Header.Set(spanHeader, spanHeaderValue(itemID, spanID))
	}
}

// awaitDone reads a job's SSE stream until its done event.
func (e *jobsEnv) awaitDone(client *http.Client, key string, tr *tracer, itemID, spanID int64, id string) (service.Event, error) {
	var ev service.Event
	req, err := http.NewRequest(http.MethodGet, e.url+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return ev, err
	}
	e.label(req, key, tr, itemID, spanID)
	resp, err := client.Do(req)
	if err != nil {
		return ev, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ev, fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		ev = service.Event{}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return ev, fmt.Errorf("events %s: %w", id, err)
		}
		switch ev.Type {
		case "done":
			io.Copy(io.Discard, resp.Body)
			return ev, nil
		case "failed":
			return ev, fmt.Errorf("job %s failed: %s", id, ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return ev, fmt.Errorf("events %s: %w", id, err)
	}
	return ev, fmt.Errorf("events %s: stream ended before done", id)
}

// serviceTotals sums the shards' service metrics.
type serviceTotals struct {
	queueWaitN, runN, trialN     int64
	queueWaitS, runS, trialS     float64
	cacheHits, engineRuns, done  int64
	storeGet, storePut           time.Duration
	storeGets, storePuts, storeH int64
}

func (e *jobsEnv) totals() serviceTotals {
	var t serviceTotals
	for _, sh := range e.shards {
		m := sh.svc.Metrics()
		t.queueWaitN += m.QueueWait.Count()
		t.queueWaitS += m.QueueWait.Sum()
		t.runN += m.RunDuration.Count()
		t.runS += m.RunDuration.Sum()
		t.trialN += m.TrialDuration.Count()
		t.trialS += m.TrialDuration.Sum()
		t.cacheHits += m.CacheHits.Load()
		t.engineRuns += m.EngineRuns.Load()
		if st := sh.store; st != nil {
			t.storeGets += st.get.calls.Load()
			t.storeGet += time.Duration(st.get.ns.Load())
			t.storePuts += st.put.calls.Load()
			t.storePut += time.Duration(st.put.ns.Load())
			t.storeH += st.hits.Load()
		}
	}
	return t
}

func (e *jobsEnv) setTracer(tr *tracer) {
	e.router.tr.Store(tr)
	for _, sh := range e.shards {
		sh.handler.tr.Store(tr)
		if sh.store != nil {
			sh.store.tr.Store(tr)
		}
	}
}

func (e *jobsEnv) measure(d time.Duration, tr *tracer) (*phase, error) {
	e.setTracer(tr)
	defer e.setTracer(nil)
	e.routerT, e.backendT = layerTimer{}, layerTimer{}
	before := e.totals()
	p := newPhase()
	results, _ := e.run(0, tr, p.start.Add(d))
	p.finish()
	after := e.totals()

	e.pairs = e.pairs[:0]
	var hits, misses []float64
	var status429, httpErrs int
	var rtNS int64
	for _, r := range results {
		p.items.add(r.items)
		status429 += r.status429
		httpErrs += r.errs
		rtNS += r.rtNS
		for _, j := range r.jobs {
			p.latencies = append(p.latencies, ms(j.latency))
			if j.hit {
				hits = append(hits, ms(j.latency))
				if len(e.pairs) < verifyPairs {
					e.pairs = append(e.pairs, [2]string{j.id, j.missID})
				}
			} else {
				misses = append(misses, ms(j.latency))
			}
		}
	}
	p.work = float64(len(p.latencies))
	m := p.layers
	m["jobs.hit_latency_p50_ms"] = median(hits)
	m["jobs.miss_latency_p50_ms"] = median(misses)
	if tr == nil {
		return p, nil
	}
	mean := func(sum float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	m["store.get_calls"] = float64(after.storeGets - before.storeGets)
	m["store.get_us"] = mean(float64((after.storeGet - before.storeGet).Microseconds()), after.storeGets-before.storeGets)
	m["store.get_hit_ratio"] = mean(float64(after.storeH-before.storeH), after.storeGets-before.storeGets)
	m["store.put_calls"] = float64(after.storePuts - before.storePuts)
	m["store.put_us"] = mean(float64((after.storePut - before.storePut).Microseconds()), after.storePuts-before.storePuts)
	m["shard.router_us"] = mean(float64(e.routerT.ns.Load()-e.backendT.ns.Load())/1e3, e.routerT.calls.Load())
	m["service.queue_wait_ms"] = mean((after.queueWaitS-before.queueWaitS)*1e3, after.queueWaitN-before.queueWaitN)
	m["service.run_ms"] = mean((after.runS-before.runS)*1e3, after.runN-before.runN)
	m["scenario.trial_ms"] = mean((after.trialS-before.trialS)*1e3, after.trialN-before.trialN)
	m["service.cache_hits"] = float64(after.cacheHits - before.cacheHits)
	m["service.engine_runs"] = float64(after.engineRuns - before.engineRuns)
	m["http.status_429"] = float64(status429)
	m["http.errors"] = float64(httpErrs)
	m["trace.residual_ratio"] = 1 - float64(e.routerT.ns.Load())/float64(rtNS)
	return p, nil
}

// fetch GETs a front-door path and returns the body of a 200 answer.
func (e *jobsEnv) fetch(path string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, e.url+path, nil)
	if err != nil {
		return nil, err
	}
	e.label(req, apiKeys[0], nil, 0, 0)
	resp, err := e.clients[0].Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// jobArtifacts returns a job's outcome JSON, as the job status renders it,
// and its trials.csv.
func (e *jobsEnv) jobArtifacts(id string) (outcome, csv []byte, err error) {
	body, err := e.fetch("/v1/jobs/" + id)
	if err != nil {
		return nil, nil, err
	}
	var st struct {
		Outcome json.RawMessage `json:"outcome"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, nil, err
	}
	csv, err = e.fetch("/v1/jobs/" + id + "/trials.csv")
	return st.Outcome, csv, err
}

// verify requires each sampled cache hit's outcome JSON and trials.csv to
// be byte-equal to those of the miss that produced them.
func (e *jobsEnv) verify(p *phase) {
	for _, pair := range e.pairs {
		if err := e.comparePair(pair[0], pair[1]); err != nil {
			p.fail(1, err)
		}
	}
}

func (e *jobsEnv) comparePair(hitID, missID string) error {
	hitOut, hitCSV, err := e.jobArtifacts(hitID)
	if err != nil {
		return err
	}
	missOut, missCSV, err := e.jobArtifacts(missID)
	if err != nil {
		return err
	}
	if len(missOut) == 0 || !bytes.Equal(hitOut, missOut) {
		return fmt.Errorf("hit %s: outcome differs from miss %s", hitID, missID)
	}
	if !bytes.Equal(hitCSV, missCSV) {
		return fmt.Errorf("hit %s: trials.csv differs from miss %s", hitID, missID)
	}
	return nil
}

func (e *jobsEnv) close() {
	if e.srv != nil {
		e.srv.Close()
		<-e.served
	}
	for _, sh := range e.shards {
		if sh.srv != nil {
			sh.srv.Close()
			<-sh.served
		}
		sh.svc.Close()
	}
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	os.RemoveAll(e.dir)
}
