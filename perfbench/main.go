// Command perfbench is the repository's end-to-end benchmark. One run
// measures one named workload for a fixed time with a seed argument, checks
// the program's outputs, and prints one JSON object as its last line of
// standard output. With -trace 0 it reports the end-to-end metrics; with
// -trace 1 it reports the per-layer metrics, measured by timing the
// benchmark's own calls into each module's public functions and
// interfaces, and writes the spans it recorded under <out>/spans/.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload sim-batch --seed 1 --seconds 20 --trace 0
//
// README.md in this directory lists the workloads, the metrics and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// env is one set-up workload, ready to measure.
type env interface {
	// measure runs timed items for about d and returns the phase. With a
	// tracer it times the layers and fills the phase's layer metrics.
	measure(d time.Duration, tr *tracer) (*phase, error)
	// verify runs the output checks that follow a phase, counting each
	// failure against the phase.
	verify(p *phase)
	close()
}

// workloads maps each workload name to its set-up.
var workloads = map[string]func(name string, o options) (env, error){
	"sim-batch":      setupSim,
	"sim-immediate":  setupSim,
	"admission-http": setupAdmission,
	"jobs-http":      setupJobs,
}

// setupRuns is how many times a run sets its workload up; setup_s is the
// median, and only the last set-up is measured.
const setupRuns = 3

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
}

type metricDef struct{ name, unit string }

// endToEndMetrics are reported with -trace 0 on every workload. The tail
// latency is not among them: between runs of the same code it swings by
// more than the largest bound a metric may have (see README.md), so it is
// reported, with its percentile and sample count, by the traced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"alloc_bytes_per_item", "B"},
}

// perLayerMetrics are reported with -trace 1 on every workload; a layer a
// workload does not reach reads 0.
var perLayerMetrics = []metricDef{
	{"sched.map_calls", "count"},
	{"sched.map_ms", "ms"},
	{"sched.pick_calls", "count"},
	{"sched.pick_ms", "ms"},
	{"workload.next_calls", "count"},
	{"workload.next_ms", "ms"},
	{"sim.self_ms", "ms"},
	{"sim.host_us_per_mapping_event", "us"},
	{"scenario.compile_ms", "ms"},
	{"sim.mapping_events", "count"},
	{"sim.deferrals", "count"},
	{"core.dropped_reactive", "count"},
	{"core.dropped_proactive", "count"},
	{"sim.on_time", "count"},
	{"sim.late", "count"},
	{"sim.unfinished", "count"},
	{"sim.robustness_pct", "%"},
	{"sim.wasted_busy_ratio", "ratio"},
	{"service.decide_handler_us", "us"},
	{"service.complete_handler_us", "us"},
	{"admission.decide_us", "us"},
	{"service.overhead_us", "us"},
	{"net.client_us", "us"},
	{"admission.accepted", "count"},
	{"admission.deferred", "count"},
	{"admission.dropped", "count"},
	{"admission.evicted", "count"},
	{"admission.stale", "count"},
	{"admission.accept_ratio", "ratio"},
	{"store.get_calls", "count"},
	{"store.get_us", "us"},
	{"store.get_hit_ratio", "ratio"},
	{"store.put_calls", "count"},
	{"store.put_us", "us"},
	{"shard.router_us", "us"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"scenario.trial_ms", "ms"},
	{"service.cache_hits", "count"},
	{"service.engine_runs", "count"},
	{"http.status_429", "count"},
	{"http.errors", "count"},
	{"jobs.hit_latency_p50_ms", "ms"},
	{"jobs.miss_latency_p50_ms", "ms"},
	{"failed_ratio", "ratio"},
	{"latency.tail_ms", "ms"},
	{"latency.tail_pct", "%"},
	{"latency.samples", "count"},
	{"trace.residual_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is one timed stretch of items.
type phase struct {
	start     time.Time
	wall      time.Duration
	alloc0    uint64
	alloc     uint64 // heap bytes allocated during the phase
	items     tally
	latencies []float64 // ms, one per item
	work      float64   // the items_per_s numerator (tasks, requests or jobs)
	layers    map[string]float64
	errs      []error
}

func newPhase() *phase {
	p := &phase{layers: map[string]float64{}}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.alloc0 = m.TotalAlloc
	p.start = time.Now()
	return p
}

func (p *phase) finish() {
	p.wall = time.Since(p.start)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.alloc = m.TotalAlloc - p.alloc0
}

// fail counts n items the phase already attempted as failed by a check
// made after the phase.
func (p *phase) fail(n int, err error) {
	p.items.failed = min(p.items.failed+n, p.items.attempted)
	p.errs = append(p.errs, err)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run (sim-batch, sim-immediate, admission-http, jobs-http)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for spans and temporary stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || trace < 0 || trace > 1 {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	rep, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench sets the workload up setupRuns times, measures the last set-up and
// builds the report. Progress and check failures go to stdout ahead of the
// report line.
func bench(o options, stdout io.Writer) (*report, error) {
	setup := workloads[o.workload]
	var e env
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(o.workload, o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	d := time.Duration(o.seconds) * time.Second
	if !o.trace {
		p, err := e.measure(d, nil)
		if err != nil {
			return nil, err
		}
		e.verify(p)
		logPhase(stdout, o, p)
		return endToEnd(p, median(setups)), nil
	}
	base, err := e.measure(d/2, nil)
	if err != nil {
		return nil, err
	}
	e.verify(base)
	logPhase(stdout, o, base)
	tr := newTracer()
	p, err := e.measure(d/2, tr)
	if err != nil {
		return nil, err
	}
	e.verify(p)
	logPhase(stdout, o, p)
	dir := filepath.Join(o.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))); err != nil {
		return nil, err
	}
	return perLayer(base, p, tr), nil
}

// logPhase prints a phase's sample count, tail percentile and first check
// failures.
func logPhase(w io.Writer, o options, p *phase) {
	lat := summarize(append([]float64(nil), p.latencies...))
	fmt.Fprintf(w, "%s seed %d: %d items in %.2fs, %d failed; latency p50 %.4g ms, p%g %.4g ms over %d samples\n",
		o.workload, o.seed, p.items.attempted, p.wall.Seconds(), p.items.failed, lat.P50, lat.TailPct, lat.Tail, lat.Samples)
	for i, err := range p.errs {
		if i == 5 {
			fmt.Fprintf(w, "  ... %d more\n", len(p.errs)-i)
			break
		}
		fmt.Fprintf(w, "  check failed: %v\n", err)
	}
}

func endToEnd(p *phase, setupS float64) *report {
	lat := summarize(p.latencies)
	values := map[string]float64{
		"setup_s":              setupS,
		"items_per_s":          p.work / p.wall.Seconds(),
		"latency_p50_ms":       lat.P50,
		"alloc_bytes_per_item": float64(p.alloc) / p.work,
	}
	return newReport(p.items, endToEndMetrics, values)
}

// perLayer reports the traced phase's layer metrics. Latency figures come
// from the untraced phase (base), which the tracer did not slow.
func perLayer(base, p *phase, tr *tracer) *report {
	values := map[string]float64{}
	for k, v := range p.layers {
		values[k] = v
	}
	for k, v := range base.layers {
		values[k] = v
	}
	all := base.items
	all.add(p.items)
	lat := summarize(base.latencies)
	values["failed_ratio"] = all.failedRatio()
	values["latency.tail_ms"] = lat.Tail
	values["latency.tail_pct"] = lat.TailPct
	values["latency.samples"] = float64(lat.Samples)
	values["trace.overhead_ratio"] = (p.wall.Seconds() / p.work) / (base.wall.Seconds() / base.work)
	values["trace.spans"] = float64(len(tr.spans))
	return newReport(all, perLayerMetrics, values)
}

func newReport(items tally, defs []metricDef, values map[string]float64) *report {
	r := &report{Correct: items.failed == 0, Attempted: items.attempted, Failed: items.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return r
}
