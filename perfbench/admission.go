package main

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"prunesim/internal/admission"
	"prunesim/internal/pet"
	"prunesim/internal/randx"
	"prunesim/internal/scenario"
	"prunesim/internal/service"
	"prunesim/internal/workload"
)

// Admission-http: each client connection owns one admission session and
// replays seeded spiky arrival traces ("episodes") against it in simulated
// time, passing an explicit now: a decide per arrival, and a complete per
// started task once a duration sampled from the PET matrix has elapsed.
// Verdicts are therefore deterministic per seed, and every episode is
// replayed again in process against an admission.Session to check them.

// episodeTasks is the arrival count of one episode; its span and spike
// count keep the paper's default workload density (15,000 tasks over 3,000
// time units with 8 spikes).
const episodeTasks = 4000

// warmupRequests is how many requests each client sends during set-up.
const warmupRequests = 6000

// sessionPlatform and sessionPrune are the session configuration:
// immediate-mode MCT with the paper's default pruning.
var (
	sessionPlatform = scenario.Platform{Heuristic: "MCT"}
	sessionPrune    = scenario.Prune{Enabled: true}
)

// sessionAPI is the part of an admission session an episode drives: over
// HTTP, or in process for the reference replay.
type sessionAPI interface {
	decide(spec admission.TaskSpec, now float64) (admission.Decision, error)
	complete(taskID int, now float64) (admission.Completion, error)
}

// episode is one arrival trace and the seed of its sampled durations.
type episode struct {
	seed    uint64
	arrival []float64
	spec    []admission.TaskSpec
}

func newEpisode(m *pet.Matrix, seed uint64) (*episode, error) {
	cfg := workload.DefaultConfig(episodeTasks)
	cfg.TimeSpan = episodeTasks / 5
	cfg.NumSpikes = episodeTasks * 8 / 15000
	cfg.Seed = seed
	src, err := workload.NewSource(m, cfg)
	if err != nil {
		return nil, err
	}
	ep := &episode{seed: seed}
	for t, ok := src.Next(); ok; t, ok = src.Next() {
		ep.arrival = append(ep.arrival, t.Arrival)
		ep.spec = append(ep.spec, admission.TaskSpec{Type: t.Type, Deadline: t.Deadline})
		src.Recycle(t)
	}
	return ep, nil
}

// completionEvent is a started task's simulated completion.
type completionEvent struct {
	at float64
	id int
}

type completionHeap []completionEvent

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].id < h[j].id
}
func (h completionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)   { *h = append(*h, x.(completionEvent)) }
func (h *completionHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// verdictCounts are the decisions and side effects an episode observed.
type verdictCounts struct {
	decisions, accepted, deferred, dropped, evicted, stale int
}

func (c *verdictCounts) add(o verdictCounts) {
	c.decisions += o.decisions
	c.accepted += o.accepted
	c.deferred += o.deferred
	c.dropped += o.dropped
	c.evicted += o.evicted
	c.stale += o.stale
}

// replayResult is what one episode replay produced.
type replayResult struct {
	requests int
	digest   uint64
	counts   verdictCounts
}

// replay drives one episode through api, stopping after maxRequests
// requests (or when stop reports true, if stop is non-nil). The digest
// folds the verdict, machine and started flag of every decision and the
// started IDs of every completion, in request order.
func replay(api sessionAPI, ep *episode, m *pet.Matrix, machineTypes []int, maxRequests int, stop func() bool) (res replayResult, err error) {
	h := fnv.New64a()
	defer func() { res.digest = h.Sum64() }()
	var h8 [8]byte
	fold := func(v int64) {
		binary.LittleEndian.PutUint64(h8[:], uint64(v))
		h.Write(h8[:])
	}
	rng := randx.New(0)
	type placed struct{ typ, machine int }
	live := map[int]placed{}
	var pending completionHeap
	start := func(id int, now float64) {
		p := live[id]
		rng.SplitInto(ep.seed, uint64(id))
		dur := m.PET(p.typ, machineTypes[p.machine]).Sample(rng)
		heap.Push(&pending, completionEvent{at: now + dur, id: id})
	}
	done := func() bool {
		return res.requests >= maxRequests || stop != nil && stop()
	}
	complete := func(ev completionEvent) error {
		res.requests++
		c, err := api.complete(ev.id, ev.at)
		if err != nil {
			return err
		}
		delete(live, ev.id)
		fold(-1)
		if c.Stale {
			res.counts.stale++
		}
		res.counts.evicted += len(c.Evicted)
		for _, id := range c.Started {
			fold(int64(id))
			start(id, ev.at)
		}
		return nil
	}
	for i, spec := range ep.spec {
		now := ep.arrival[i]
		for len(pending) > 0 && pending[0].at <= now {
			if done() {
				return res, nil
			}
			if err := complete(heap.Pop(&pending).(completionEvent)); err != nil {
				return res, err
			}
		}
		if done() {
			return res, nil
		}
		res.requests++
		d, err := api.decide(spec, now)
		if err != nil {
			return res, err
		}
		res.counts.decisions++
		res.counts.evicted += len(d.Evicted)
		fold(int64(d.Machine))
		switch d.Verdict {
		case admission.VerdictAccept:
			fold(-2)
			res.counts.accepted++
			live[d.TaskID] = placed{typ: spec.Type, machine: d.Machine}
			if d.Started {
				fold(1)
				start(d.TaskID, now)
			}
		case admission.VerdictDefer:
			fold(-3)
			res.counts.deferred++
		case admission.VerdictDrop:
			fold(-4)
			res.counts.dropped++
		default:
			return res, fmt.Errorf("unknown verdict %q", d.Verdict)
		}
	}
	for len(pending) > 0 && !done() {
		if err := complete(heap.Pop(&pending).(completionEvent)); err != nil {
			return res, err
		}
	}
	return res, nil
}

// localSession is the in-process reference: the session the HTTP handler
// creates from the same request, driven directly. m must be the session
// platform's matrix.
type localSession struct{ s *admission.Session }

func newLocalSession(m *pet.Matrix) (*localSession, error) {
	p := sessionPlatform.WithDefaults()
	prune, err := sessionPrune.WithDefaults().CoreConfig(m.NumTaskTypes())
	if err != nil {
		return nil, err
	}
	s, err := admission.NewSession(admission.Config{
		Matrix: m, MachineTypes: p.MachineTypes(m), Heuristic: p.Heuristic, Slots: p.Slots, Prune: prune,
	})
	if err != nil {
		return nil, err
	}
	return &localSession{s: s}, nil
}

func (l *localSession) decide(spec admission.TaskSpec, now float64) (admission.Decision, error) {
	return l.s.Decide(spec, now)
}

func (l *localSession) complete(id int, now float64) (admission.Completion, error) {
	return l.s.Complete(id, now)
}

// httpSession drives one session over one keep-alive connection.
type httpSession struct {
	client *http.Client
	url    string // session base URL
	buf    bytes.Buffer

	tr        *tracer
	item      int64 // ID of the last request sent
	latencies []float64
	items     tally
	status429 int
	errs      int
	rtNS      int64 // summed round-trip time of every request
}

// post sends one JSON request and decodes the 2xx response into out. The
// round trip spans from just before the request is sent until its body has
// been read.
func (h *httpSession) post(path string, in, out any) error {
	h.buf.Reset()
	if err := json.NewEncoder(&h.buf).Encode(in); err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, h.url+path, bytes.NewReader(h.buf.Bytes()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	h.item++
	var id int64
	if h.tr != nil {
		id = h.tr.id()
		req.Header.Set(spanHeader, spanHeaderValue(h.item, id))
	}
	t0 := time.Now()
	resp, err := h.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rt := time.Since(t0)
	h.rtNS += int64(rt)
	if h.tr != nil {
		start := int64(t0.Sub(h.tr.epoch))
		h.tr.add(span{ID: id, Name: "client" + path, Item: h.item, Start: start, End: start + int64(rt)})
	}
	h.latencies = append(h.latencies, ms(rt))
	status := 0
	if err == nil {
		status = resp.StatusCode
		if status == http.StatusTooManyRequests {
			h.status429++
		}
		if status < 200 || status > 299 {
			err = fmt.Errorf("POST %s: status %d: %s", path, status, strings.TrimSpace(string(body)))
		} else {
			err = json.Unmarshal(body, out)
		}
	}
	if err != nil {
		h.errs++
	}
	h.items.record(status, err, true)
	return err
}

func (h *httpSession) decide(spec admission.TaskSpec, now float64) (admission.Decision, error) {
	var d admission.Decision
	err := h.post("/decide", struct {
		admission.TaskSpec
		Now float64 `json:"now"`
	}{spec, now}, &d)
	return d, err
}

func (h *httpSession) complete(id int, now float64) (admission.Completion, error) {
	var c admission.Completion
	err := h.post("/complete", struct {
		TaskID int     `json:"task_id"`
		Now    float64 `json:"now"`
	}{id, now}, &c)
	return c, err
}

// episodeRun records one episode an HTTP client ran, for the in-process
// check.
type episodeRun struct {
	ep       *episode
	requests int
	digest   uint64
}

type admissionEnv struct {
	seed         uint64
	svc          *service.Server
	srv          *http.Server
	served       chan struct{}
	handler      *timedHandler
	base         string
	matrix       *pet.Matrix
	machineTypes []int
	clients      []*http.Client // one keep-alive connection each

	decideT, completeT, otherT layerTimer
	runs                       [][]episodeRun // per client, from the last phase
}

func setupAdmission(_ string, o options) (env, error) {
	p := sessionPlatform.WithDefaults()
	m, err := p.BuildMatrix()
	if err != nil {
		return nil, err
	}
	e := &admissionEnv{seed: o.seed, matrix: m, machineTypes: p.MachineTypes(m)}
	e.svc = service.New(service.Config{Workers: -1})
	e.handler = &timedHandler{name: "service.Handler", next: e.svc.Handler(), timer: e.timerFor}
	if e.srv, e.base, e.served, err = serve(e.handler); err != nil {
		e.svc.Close()
		return nil, err
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		e.clients = append(e.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		})
	}
	// Warm-up: open every connection and run a partial episode on each.
	var wg sync.WaitGroup
	errs := make([]error, len(e.clients))
	for i, c := range e.clients {
		wg.Add(1)
		go func(i int, c *http.Client) {
			defer wg.Done()
			ep, err := newEpisode(e.matrix, splitmix(uint64(i)))
			if err == nil {
				_, err = e.runEpisode(c, ep, &httpSession{}, warmupRequests, nil)
			}
			errs[i] = err
		}(i, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

func (e *admissionEnv) timerFor(r *http.Request) *layerTimer {
	switch {
	case strings.HasSuffix(r.URL.Path, "/decide"):
		return &e.decideT
	case strings.HasSuffix(r.URL.Path, "/complete"):
		return &e.completeT
	}
	return &e.otherT
}

// runEpisode creates a session, replays ep through it and deletes it.
func (e *admissionEnv) runEpisode(c *http.Client, ep *episode, hs *httpSession, maxRequests int, stop func() bool) (replayResult, error) {
	var created struct {
		SessionID string `json:"session_id"`
	}
	hs.client = c
	hs.url = e.base + "/v1/sessions"
	if err := hs.post("", service.SessionRequest{Platform: sessionPlatform, Prune: sessionPrune}, &created); err != nil {
		return replayResult{}, err
	}
	// Session create and delete are set-up of the episode, not items.
	hs.items = tally{}
	hs.latencies = hs.latencies[:0]
	hs.url += "/" + created.SessionID
	res, err := replay(hs, ep, e.matrix, e.machineTypes, maxRequests, stop)
	req, rerr := http.NewRequest(http.MethodDelete, hs.url, nil)
	if rerr == nil {
		var resp *http.Response
		if resp, rerr = c.Do(req); rerr == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	return res, errors.Join(err, rerr)
}

// episodeSeed is the arrival seed of client c's n-th episode.
func (e *admissionEnv) episodeSeed(c, n int) uint64 {
	return splitmix(e.seed*0x9e3779b97f4a7c15 ^ uint64(c)<<32 ^ uint64(n))
}

func (e *admissionEnv) measure(d time.Duration, tr *tracer) (*phase, error) {
	e.handler.tr.Store(tr)
	defer e.handler.tr.Store(nil)
	decide0 := e.svc.Metrics().DecideLatency
	decideCount, decideSum := decide0.Count(), decide0.Sum()
	e.decideT, e.completeT, e.otherT = layerTimer{}, layerTimer{}, layerTimer{}

	p := newPhase()
	deadline := p.start.Add(d)
	stop := func() bool { return time.Now().After(deadline) }
	sessions := make([]*httpSession, len(e.clients))
	runs := make([][]episodeRun, len(e.clients))
	counts := make([]verdictCounts, len(e.clients))
	errs := make([]error, len(e.clients))
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func(i int, c *http.Client) {
			defer wg.Done()
			hs := &httpSession{tr: tr, item: int64(i) << 40}
			sessions[i] = hs
			var lat []float64
			var items tally
			for n := 0; !stop(); n++ {
				ep, err := newEpisode(e.matrix, e.episodeSeed(i, n))
				if err != nil {
					errs[i] = err
					return
				}
				res, err := e.runEpisode(c, ep, hs, 1<<30, stop)
				lat = append(lat, hs.latencies...)
				items.add(hs.items)
				if err != nil {
					// A broken session cannot continue; the failure is
					// already counted against its request.
					continue
				}
				counts[i].add(res.counts)
				runs[i] = append(runs[i], episodeRun{ep: ep, requests: res.requests, digest: res.digest})
			}
			hs.latencies, hs.items = lat, items
		}(i, c)
	}
	wg.Wait()
	p.finish()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	e.runs = runs
	var total verdictCounts
	var rtNS int64
	var status429, httpErrs int
	for i, hs := range sessions {
		p.items.add(hs.items)
		p.latencies = append(p.latencies, hs.latencies...)
		total.add(counts[i])
		rtNS += hs.rtNS
		status429 += hs.status429
		httpErrs += hs.errs
	}
	p.work = float64(p.items.attempted)
	if tr != nil {
		decides := e.svc.Metrics().DecideLatency
		decideUS := (decides.Sum() - decideSum) / float64(decides.Count()-decideCount) * 1e6
		handlerNS := e.decideT.ns.Load() + e.completeT.ns.Load() + e.otherT.ns.Load()
		handlerCalls := e.decideT.calls.Load() + e.completeT.calls.Load() + e.otherT.calls.Load()
		m := p.layers
		m["service.decide_handler_us"] = e.decideT.meanUS()
		m["service.complete_handler_us"] = e.completeT.meanUS()
		m["admission.decide_us"] = decideUS
		m["service.overhead_us"] = e.decideT.meanUS() - decideUS
		m["net.client_us"] = float64(rtNS-handlerNS) / float64(handlerCalls) / 1e3
		m["admission.accepted"] = float64(total.accepted)
		m["admission.deferred"] = float64(total.deferred)
		m["admission.dropped"] = float64(total.dropped)
		m["admission.evicted"] = float64(total.evicted)
		m["admission.stale"] = float64(total.stale)
		m["admission.accept_ratio"] = float64(total.accepted) / float64(total.decisions)
		m["http.status_429"] = float64(status429)
		m["http.errors"] = float64(httpErrs)
		m["trace.residual_ratio"] = 1 - float64(rtNS)/(p.wall.Seconds()*1e9*float64(len(e.clients)))
	}
	return p, nil
}

// verify replays every episode of the last phase in process, up to the
// request count the HTTP client reached, and requires the same verdict,
// machine and started sequences. A mismatch fails the episode's requests.
func (e *admissionEnv) verify(p *phase) {
	for _, runs := range e.runs {
		for _, r := range runs {
			local, err := newLocalSession(e.matrix)
			if err != nil {
				p.fail(r.requests, err)
				continue
			}
			res, err := replay(local, r.ep, e.matrix, e.machineTypes, r.requests, nil)
			local.s.Close()
			if err == nil && res.digest != r.digest {
				err = fmt.Errorf("episode seed %d: HTTP verdicts differ from the in-process replay", r.ep.seed)
			}
			if err == nil && res.requests != r.requests {
				err = fmt.Errorf("episode seed %d: %d requests over HTTP, %d in process", r.ep.seed, r.requests, res.requests)
			}
			if err != nil {
				p.fail(r.requests, err)
			}
		}
	}
}

func (e *admissionEnv) close() {
	e.srv.Close()
	<-e.served
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	e.svc.Close()
}
