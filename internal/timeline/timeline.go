// Package timeline aggregates per-trial simulation outcomes into a
// fixed-size live view of a running sweep: a binned time-series of outcome
// rates over the run's wall clock plus online summary statistics
// (running mean/min/max and P² quantile estimates for robustness and trial
// duration). Memory is bounded by construction — a Timeline is a few
// kilobytes regardless of how many trials fold into it, and the Observe hot
// path performs no allocations — so the same aggregator serves both the
// serving layer's /v1/jobs/{id}/timeline endpoint and cmd/hcsim's console
// progress without capping trial counts.
//
// The time axis is rolling in resolution, not in coverage: the series
// always spans the whole run. Observations land in one of maxBins
// fixed-width bins; when the run outgrows the window, adjacent bins merge
// pairwise and the bin width doubles (so a week-long sweep ends with the
// same 64 bins a ten-second one has, just coarser). Bin boundaries are
// half-open [start, start+width): an observation at exactly a boundary
// belongs to the later bin.
package timeline

import (
	"sort"
	"sync"

	"prunesim/internal/sim"
	"prunesim/internal/stats"
)

// maxBins is the fixed capacity of the time-series. 64 bins × doubling
// widths cover any run length; more would out-resolve a console or chart.
const maxBins = 64

// DefaultBinWidth is the initial bin width in seconds. Doubling starts
// once a run exceeds maxBins × this.
const DefaultBinWidth = 0.25

// Counts is the per-trial outcome breakdown folded into bins and totals.
// Fields mirror sim.Result's counted-window partition plus deferrals.
type Counts struct {
	// Counted tasks inside the measurement window; OnTime, Late,
	// DroppedReactive, DroppedProactive and Unfinished partition it.
	Counted          int `json:"counted"`
	OnTime           int `json:"on_time"`
	Late             int `json:"late"`
	DroppedReactive  int `json:"dropped_reactive"`
	DroppedProactive int `json:"dropped_proactive"`
	Unfinished       int `json:"unfinished"`
	// Deferrals counts deferring decisions (a task may defer repeatedly).
	Deferrals int `json:"deferrals"`
}

// ResultCounts returns a simulation result's outcome breakdown.
func ResultCounts(r *sim.Result) Counts {
	return Counts{
		Counted:          r.Counted,
		OnTime:           r.OnTime,
		Late:             r.Late,
		DroppedReactive:  r.DroppedReactive,
		DroppedProactive: r.DroppedProactive,
		Unfinished:       r.Unfinished,
		Deferrals:        r.Deferrals,
	}
}

// add folds o into c.
func (c *Counts) add(o *Counts) {
	c.Counted += o.Counted
	c.OnTime += o.OnTime
	c.Late += o.Late
	c.DroppedReactive += o.DroppedReactive
	c.DroppedProactive += o.DroppedProactive
	c.Unfinished += o.Unfinished
	c.Deferrals += o.Deferrals
}

// Observation is one finished trial as the timeline sees it.
type Observation struct {
	// Trial is the trial index — the deterministic tie-break Fold sorts by.
	Trial int
	// At is the trial's completion time in seconds since the run started.
	// Negative means unknown (e.g. a cache-served outcome): the observation
	// folds into totals and summaries but not into the time bins.
	At float64
	// Duration is the trial's wall-clock duration in seconds; negative
	// means unknown and is excluded from the duration summary.
	Duration float64
	// Robustness is the trial's robustness (% of counted tasks on time).
	Robustness float64
	// Counts is the trial's outcome breakdown.
	Counts Counts
}

// bin is one slot of the time-series.
type bin struct {
	trials int
	counts Counts
}

// Timeline is the streaming aggregator. Create with New; safe for
// concurrent use (Observe from a progress callback, Snapshot from HTTP
// handlers).
type Timeline struct {
	mu          sync.Mutex
	totalTrials int
	binWidth    float64
	nbins       int // bins in use: highest occupied index + 1
	bins        [maxBins]bin

	trials  int
	totals  Counts
	elapsed float64 // latest At observed

	rob                    stats.Running
	robP50, robP90, robP99 stats.P2Quantile
	dur                    stats.Running
	durP50, durP90, durP99 stats.P2Quantile
}

// New returns a Timeline expecting totalTrials trials, with the default
// initial bin width.
func New(totalTrials int) *Timeline { return NewWithWidth(totalTrials, DefaultBinWidth) }

// NewWithWidth is New with an explicit initial bin width in seconds
// (values <= 0 fall back to DefaultBinWidth).
func NewWithWidth(totalTrials int, binWidth float64) *Timeline {
	if binWidth <= 0 {
		binWidth = DefaultBinWidth
	}
	return &Timeline{
		totalTrials: totalTrials,
		binWidth:    binWidth,
		robP50:      stats.NewP2Quantile(0.50),
		robP90:      stats.NewP2Quantile(0.90),
		robP99:      stats.NewP2Quantile(0.99),
		durP50:      stats.NewP2Quantile(0.50),
		durP90:      stats.NewP2Quantile(0.90),
		durP99:      stats.NewP2Quantile(0.99),
	}
}

// Observe folds one finished trial. It never allocates: compaction mutates
// the fixed bin array in place.
func (t *Timeline) Observe(o Observation) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trials++
	t.totals.add(&o.Counts)
	t.rob.Observe(o.Robustness)
	t.robP50.Observe(o.Robustness)
	t.robP90.Observe(o.Robustness)
	t.robP99.Observe(o.Robustness)
	if o.Duration >= 0 {
		t.dur.Observe(o.Duration)
		t.durP50.Observe(o.Duration)
		t.durP90.Observe(o.Duration)
		t.durP99.Observe(o.Duration)
	}
	if o.At < 0 {
		return
	}
	if o.At > t.elapsed {
		t.elapsed = o.At
	}
	idx := int(o.At / t.binWidth)
	for idx >= maxBins {
		t.compact()
		idx = int(o.At / t.binWidth)
	}
	b := &t.bins[idx]
	b.trials++
	b.counts.add(&o.Counts)
	if idx >= t.nbins {
		t.nbins = idx + 1
	}
}

// compact halves the series resolution: adjacent bin pairs merge in place
// and the bin width doubles. Totals are conserved exactly.
func (t *Timeline) compact() {
	for i := 0; i < maxBins/2; i++ {
		m := t.bins[2*i]
		m.trials += t.bins[2*i+1].trials
		m.counts.add(&t.bins[2*i+1].counts)
		t.bins[i] = m
	}
	for i := maxBins / 2; i < maxBins; i++ {
		t.bins[i] = bin{}
	}
	t.binWidth *= 2
	t.nbins = (t.nbins + 1) / 2
}

// Fold observes a batch of trials in deterministic order — sorted by
// (At, Trial) — so the resulting state is identical however the batch was
// accumulated. This is the path for rebuilding a timeline from stored
// per-trial results (cache-served jobs, final console reports): concurrent
// trial completion order never leaks into the folded aggregate.
func (t *Timeline) Fold(obs []Observation) {
	sorted := append([]Observation(nil), obs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].At != sorted[j].At {
			return sorted[i].At < sorted[j].At
		}
		return sorted[i].Trial < sorted[j].Trial
	})
	for i := range sorted {
		t.Observe(sorted[i])
	}
}

// Quantiles is the JSON view of one online summary: moments from a
// stats.Running plus P² percentile estimates.
type Quantiles struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
}

// Rates is the outcome breakdown as percentages of counted tasks, plus
// deferrals per trial (deferrals are decisions, not tasks, so a percentage
// would mislead).
type Rates struct {
	OnTimePercent           float64 `json:"on_time_percent"`
	LatePercent             float64 `json:"late_percent"`
	DroppedReactivePercent  float64 `json:"dropped_reactive_percent"`
	DroppedProactivePercent float64 `json:"dropped_proactive_percent"`
	UnfinishedPercent       float64 `json:"unfinished_percent"`
	DeferralsPerTrial       float64 `json:"deferrals_per_trial"`
}

// Bin is the JSON view of one time-series slot.
type Bin struct {
	// StartSeconds is the bin's inclusive lower boundary; the bin covers
	// [StartSeconds, StartSeconds + width).
	StartSeconds float64 `json:"start_seconds"`
	// Trials completed inside the bin.
	Trials int `json:"trials"`
	// Counts aggregates those trials' outcome breakdowns.
	Counts Counts `json:"counts"`
	// OnTimePercent is the bin-local robustness (on-time / counted).
	OnTimePercent float64 `json:"on_time_percent"`
	// TasksPerSec is the bin's counted-task completion rate.
	TasksPerSec float64 `json:"tasks_per_sec"`
}

// Snapshot is a point-in-time JSON view of the aggregate. Produced by
// Timeline.Snapshot; served verbatim by GET /v1/jobs/{id}/timeline and
// embedded in `timeline` SSE events and hcsim reports.
type Snapshot struct {
	TrialsDone      int     `json:"trials_done"`
	TrialsTotal     int     `json:"trials_total"`
	ElapsedSeconds  float64 `json:"elapsed_seconds"`
	TrialsPerSec    float64 `json:"trials_per_sec"`
	BinWidthSeconds float64 `json:"bin_width_seconds"`
	Totals          Counts  `json:"totals"`
	Rates           Rates   `json:"rates"`
	// Robustness summarizes per-trial robustness so far.
	Robustness Quantiles `json:"robustness"`
	// TrialDuration summarizes per-trial wall durations in seconds; omitted
	// when no trial carried a known duration.
	TrialDuration *Quantiles `json:"trial_duration,omitempty"`
	// Bins is the time-series, trimmed to the occupied prefix; empty when
	// no observation carried a completion time.
	Bins []Bin `json:"bins"`
}

// quantiles renders one summary + its three estimators.
func quantiles(r *stats.Running, p50, p90, p99 *stats.P2Quantile) Quantiles {
	return Quantiles{
		N:      r.N(),
		Mean:   r.Mean(),
		StdDev: r.StdDev(),
		Min:    r.Min(),
		Max:    r.Max(),
		P50:    p50.Value(),
		P90:    p90.Value(),
		P99:    p99.Value(),
	}
}

// pct returns 100*part/whole, 0 when whole is 0.
func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// Snapshot renders the current aggregate. It allocates (the bins slice) —
// call it at reporting cadence, not per trial.
func (t *Timeline) Snapshot() *Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Snapshot{
		TrialsDone:      t.trials,
		TrialsTotal:     t.totalTrials,
		ElapsedSeconds:  t.elapsed,
		BinWidthSeconds: t.binWidth,
		Totals:          t.totals,
		Rates: Rates{
			OnTimePercent:           pct(t.totals.OnTime, t.totals.Counted),
			LatePercent:             pct(t.totals.Late, t.totals.Counted),
			DroppedReactivePercent:  pct(t.totals.DroppedReactive, t.totals.Counted),
			DroppedProactivePercent: pct(t.totals.DroppedProactive, t.totals.Counted),
			UnfinishedPercent:       pct(t.totals.Unfinished, t.totals.Counted),
		},
		Robustness: quantiles(&t.rob, &t.robP50, &t.robP90, &t.robP99),
	}
	if t.trials > 0 {
		s.Rates.DeferralsPerTrial = float64(t.totals.Deferrals) / float64(t.trials)
	}
	if t.elapsed > 0 {
		s.TrialsPerSec = float64(t.trials) / t.elapsed
	}
	if t.dur.N() > 0 {
		q := quantiles(&t.dur, &t.durP50, &t.durP90, &t.durP99)
		s.TrialDuration = &q
	}
	s.Bins = make([]Bin, t.nbins)
	for i := 0; i < t.nbins; i++ {
		b := &t.bins[i]
		s.Bins[i] = Bin{
			StartSeconds:  float64(i) * t.binWidth,
			Trials:        b.trials,
			Counts:        b.counts,
			OnTimePercent: pct(b.counts.OnTime, b.counts.Counted),
			TasksPerSec:   float64(b.counts.Counted) / t.binWidth,
		}
	}
	return s
}
