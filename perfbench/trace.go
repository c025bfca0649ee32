package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary: the benchmark records it
// around its own call into a module's public function or interface. Spans
// of one item (a trial, a request, a job) share Item; Parent links a span
// to the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Item   int64  `json:"item"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans one run keeps in memory. Fine-grained layers
// (sched, workload) are sampled into spans (see sampleEvery) and counted in
// layer timers in full, so the cap only cuts the audit trail, never a
// metric.
const maxSpans = 200_000

// sampleEvery is the stride at which per-call layer timings are also kept
// as spans.
const sampleEvery = 256

// tracer keeps spans in memory for the traced phase of a run and writes
// them out when the run ends. It is safe for concurrent use.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns monotonic nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// id returns a fresh span ID (never 0).
func (t *tracer) id() int64 { return t.nextID.Add(1) }

// add keeps spans, dropping (and counting) any beyond maxSpans.
func (t *tracer) add(ss ...span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	room := maxSpans - len(t.spans)
	if room < 0 {
		room = 0
	}
	if len(ss) > room {
		t.dropped += len(ss) - room
		ss = ss[:room]
	}
	t.spans = append(t.spans, ss...)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// layerTimer accumulates the calls into one layer and the time they took.
// It is safe for concurrent use.
type layerTimer struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (l *layerTimer) observe(d time.Duration) {
	l.calls.Add(1)
	l.ns.Add(int64(d))
}

// meanUS is the mean call time in microseconds (0 without calls).
func (l *layerTimer) meanUS() float64 {
	n := l.calls.Load()
	if n == 0 {
		return 0
	}
	return float64(l.ns.Load()) / float64(n) / 1e3
}
