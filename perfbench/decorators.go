package main

import (
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"prunesim/internal/scenario"
	"prunesim/internal/sched"
	"prunesim/internal/store"
	"prunesim/internal/task"
	"prunesim/internal/workload"
)

// The decorators in this file time calls into the program's public
// interfaces from outside: each forwards every call unchanged and, while a
// tracer is attached, records the call's duration. With no tracer attached
// they cost one atomic load per call.

// spanHeader carries "<item>.<span id>" from the load generator to the
// handlers it reaches, so a handler span names its item and parent.
const spanHeader = "X-Bench-Span"

func spanHeaderValue(item, id int64) string {
	return strconv.FormatInt(item, 10) + "." + strconv.FormatInt(id, 10)
}

func parseSpanHeader(v string) (item, parent int64) {
	a, b, _ := strings.Cut(v, ".")
	item, err1 := strconv.ParseInt(a, 10, 64)
	parent, err2 := strconv.ParseInt(b, 10, 64)
	if err1 != nil || err2 != nil {
		return -1, 0
	}
	return item, parent
}

// timedHandler wraps an http.Handler. The request and the ResponseWriter
// pass through untouched, so status codes, bodies and streaming (the
// writer's http.Flusher) reach the client exactly as next wrote them.
type timedHandler struct {
	name string
	next http.Handler
	// timer picks the layer timer a request is charged to.
	timer func(r *http.Request) *layerTimer
	tr    atomic.Pointer[tracer]
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	item, parent := parseSpanHeader(r.Header.Get(spanHeader))
	start := tr.now()
	h.next.ServeHTTP(w, r)
	end := tr.now()
	h.timer(r).observe(time.Duration(end - start))
	tr.add(span{ID: tr.id(), Parent: parent, Name: h.name, Item: item, Start: start, End: end})
}

// timedStore wraps a store.Store and times Get and Put.
type timedStore struct {
	inner    store.Store
	tr       atomic.Pointer[tracer]
	get, put layerTimer
	hits     atomic.Int64
}

func (s *timedStore) Get(key string) (*scenario.Outcome, bool) {
	tr := s.tr.Load()
	if tr == nil {
		return s.inner.Get(key)
	}
	start := tr.now()
	o, ok := s.inner.Get(key)
	end := tr.now()
	s.get.observe(time.Duration(end - start))
	if ok {
		s.hits.Add(1)
	}
	tr.add(span{ID: tr.id(), Name: "store.Get", Item: -1, Start: start, End: end})
	return o, ok
}

func (s *timedStore) Put(key string, o *scenario.Outcome) {
	tr := s.tr.Load()
	if tr == nil {
		s.inner.Put(key, o)
		return
	}
	start := tr.now()
	s.inner.Put(key, o)
	end := tr.now()
	s.put.observe(time.Duration(end - start))
	tr.add(span{ID: tr.id(), Name: "store.Put", Item: -1, Start: start, End: end})
}

func (s *timedStore) Delete(key string) bool { return s.inner.Delete(key) }
func (s *timedStore) Keys() []string         { return s.inner.Keys() }
func (s *timedStore) Len() int               { return s.inner.Len() }
func (s *timedStore) Close() error           { return s.inner.Close() }

// trialLayers accumulates the per-call layer times of one simulated trial.
// A trial runs on one goroutine, so it needs no synchronization; spans of
// every sampleEvery-th call are kept for the tracer.
type trialLayers struct {
	tr     *tracer
	item   int64
	parent int64

	mapCalls, mapNS   int64
	pickCalls, pickNS int64
	nextCalls, nextNS int64
	spans             []span
}

// observe charges one call that started at t0 to a layer.
func (l *trialLayers) observe(name string, calls, ns *int64, t0 time.Time) {
	d := time.Since(t0)
	*calls++
	*ns += int64(d)
	if *calls%sampleEvery == 1 {
		start := int64(t0.Sub(l.tr.epoch))
		l.spans = append(l.spans, span{ID: l.tr.id(), Parent: l.parent, Name: name, Item: l.item, Start: start, End: start + int64(d)})
	}
}

// timedBatch wraps a batch heuristic and times Map.
type timedBatch struct {
	inner sched.Batch
	l     *trialLayers
}

func (b timedBatch) Name() string { return b.inner.Name() }

func (b timedBatch) Map(ctx *sched.Context, unmapped []*task.Task) []sched.Assignment {
	t0 := time.Now()
	a := b.inner.Map(ctx, unmapped)
	b.l.observe("sched.Map", &b.l.mapCalls, &b.l.mapNS, t0)
	return a
}

// timedImmediate wraps an immediate heuristic and times Pick.
type timedImmediate struct {
	inner sched.Immediate
	l     *trialLayers
}

func (h timedImmediate) Name() string { return h.inner.Name() }

func (h timedImmediate) Pick(ctx *sched.Context, t *task.Task) int {
	t0 := time.Now()
	j := h.inner.Pick(ctx, t)
	h.l.observe("sched.Pick", &h.l.pickCalls, &h.l.pickNS, t0)
	return j
}

// timedSource wraps a workload source, times Next and hands recycled tasks
// back to the source's arena.
type timedSource struct {
	inner *workload.Source
	l     *trialLayers
}

func (s timedSource) Next() (*task.Task, bool) {
	t0 := time.Now()
	t, ok := s.inner.Next()
	s.l.observe("workload.Next", &s.l.nextCalls, &s.l.nextNS, t0)
	return t, ok
}

func (s timedSource) Recycle(t *task.Task) { s.inner.Recycle(t) }
