// Package workload generates the synthetic task streams the paper evaluates
// on (Section V-B). Arrivals come from a pluggable ArrivalModel (see
// arrivals.go): the paper's default is per-task-type Gamma inter-arrival
// times (variance 10% of the mean) under a "spiky" rate profile (rate rises
// to 3x the base during spikes; each spike lasts one third of a lull
// period), but homogeneous/inhomogeneous Poisson, Markov-modulated Poisson
// and trace-replay models plug in at the same seam. Every model shares the
// hard-deadline assignment of Eq. 4:
//
//	deadline = arrival + avg(type) + beta * avg(all),  beta ~ U[0.8, 2.5].
//
// The original trial files (git.io/fhSZW) are no longer retrievable, so
// trials are regenerated from this recipe; a (seed, trial) pair pins a trial
// exactly.
package workload

import (
	"fmt"
	"math"

	"prunesim/internal/pet"
	"prunesim/internal/task"
)

// Config parameterizes one workload trial.
type Config struct {
	// Model selects the arrival model: ModelSpiky (the paper default, also
	// chosen when empty), ModelConstant, ModelPoisson, ModelDiurnal,
	// ModelMMPP or ModelTrace.
	Model string
	// NumTasks is the target expected number of tasks across all types
	// (the paper's oversubscription knob: 15K, 20K, 25K). Ignored by
	// ModelTrace, whose task count is the trace length.
	NumTasks int
	// TimeSpan is the workload duration in time units (paper Fig. 6: 3000).
	TimeSpan float64
	// NumSpikes is the number of spikes across the span (ModelSpiky only).
	NumSpikes int
	// SpikeFactor multiplies the base rate during spikes (paper: 3).
	SpikeFactor float64
	// IATVarianceFrac is the inter-arrival Gamma variance as a fraction of
	// the mean (paper: 0.10; Gamma models only).
	IATVarianceFrac float64
	// BetaLo and BetaHi bound the per-task uniform slack multiplier beta
	// (paper: [0.8, 2.5]).
	BetaLo, BetaHi float64
	// ValueLo and ValueHi bound the per-task uniform value (priority) draw
	// for the value-aware pruning extension. Both zero means every task has
	// unit value (the paper's baseline).
	ValueLo, ValueHi float64
	// Diurnal parameterizes the inhomogeneous-Poisson rate curve
	// (ModelDiurnal only).
	Diurnal DiurnalConfig
	// MMPP parameterizes the Markov-modulated Poisson process
	// (ModelMMPP only).
	MMPP MMPPConfig
	// Trace holds replayed arrival timestamps (ModelTrace only).
	Trace TraceConfig
	// Seed is the workload family seed; Trial varies arrival times within
	// the same rate/model (the paper runs 30 trials per configuration).
	Seed  uint64
	Trial int
}

// DefaultConfig returns the paper's default workload parameters at the given
// oversubscription level (total task count).
func DefaultConfig(numTasks int) Config {
	return Config{
		Model:           ModelSpiky,
		NumTasks:        numTasks,
		TimeSpan:        3000,
		NumSpikes:       8,
		SpikeFactor:     3,
		IATVarianceFrac: 0.10,
		BetaLo:          0.8,
		BetaHi:          2.5,
		Seed:            0x5eed2019,
	}
}

// Generate builds one workload trial against the given PET matrix (the
// matrix supplies avg_i and avg_all for the deadline formula). Tasks are
// returned sorted by arrival time with IDs assigned in arrival order. An
// invalid configuration is reported as an error, never a panic — the
// serving layer turns it into a failed job.
func Generate(m *pet.Matrix, cfg Config) ([]*task.Task, error) {
	model, err := NewArrivalModel(cfg, m.NumTaskTypes())
	if err != nil {
		return nil, err
	}
	return GenerateWith(m, model, cfg), nil
}

// GenerateWith is Generate with a pre-compiled arrival model; callers
// running many trials of one configuration compile once and reuse it.
// The model must have been built from cfg (and the matrix's type count)
// via NewArrivalModel. It drains the trial's Source, so the slice holds
// exactly the sequence a streaming consumer sees.
func GenerateWith(m *pet.Matrix, model ArrivalModel, cfg Config) []*task.Task {
	src := NewSourceWith(m, model, cfg)
	var all []*task.Task
	for t, ok := src.Next(); ok; t, ok = src.Next() {
		all = append(all, t)
	}
	return all
}

// profile captures the piecewise-constant rate factor r(t) >= 1 relative to
// the base rate, and the warping between real time and the "rate-weighted"
// clock W(t) = integral of r.
type profile struct {
	constant    bool
	span        float64
	lull, spike float64 // segment structure: lull then spike, repeated
	factor      float64
	segments    int
}

func newProfile(cfg Config) profile {
	if modelName(cfg) == ModelConstant {
		return profile{constant: true, span: cfg.TimeSpan}
	}
	// Each of the NumSpikes segments is a lull followed by a spike whose
	// duration is one third of the lull: segment = lull * 4/3.
	segment := cfg.TimeSpan / float64(cfg.NumSpikes)
	lull := segment * 3 / 4
	return profile{
		span:     cfg.TimeSpan,
		lull:     lull,
		spike:    segment - lull,
		factor:   cfg.SpikeFactor,
		segments: cfg.NumSpikes,
	}
}

// boundaryEpsFrac is the relative tolerance factorAt snaps segment
// positions with. Computing a position inside a segment via
// t - floor(t/seg)*seg drifts by a few ULPs when seg does not divide the
// span exactly (e.g. 7 spikes over 3000 time units); without snapping, a
// query at an exact boundary could land on either side depending on
// rounding. The pinned semantics: a spike begins AT pos == lull, and a
// position at the very end of a segment belongs to the next segment's lull
// (so factorAt(span) == 1 for whole segments).
const boundaryEpsFrac = 1e-9

// factorAt returns r(t).
func (p profile) factorAt(t float64) float64 {
	if t < 0 || t > p.span {
		return 0
	}
	if p.constant {
		return 1
	}
	seg := p.lull + p.spike
	pos := t - math.Floor(t/seg)*seg
	eps := seg * boundaryEpsFrac
	switch {
	case seg-pos < eps:
		// Within drift of the segment end: the start of the next segment.
		pos = 0
	case math.Abs(pos-p.lull) < eps:
		// Within drift of the lull/spike edge: the spike starts here.
		pos = p.lull
	}
	if pos < p.lull {
		return 1
	}
	return p.factor
}

// meanRateFactor returns the time-average of r(t) over the span, used to
// normalize the base rate so the expected task count matches NumTasks.
func (p profile) meanRateFactor() float64 {
	if p.constant {
		return 1
	}
	seg := p.lull + p.spike
	return (p.lull + p.factor*p.spike) / seg
}

// unwarp maps a warped-clock value w (with r-weighted time) back to real
// time: finds t with W(t) = w.
func (p profile) unwarp(w float64) float64 {
	if p.constant {
		return w
	}
	segW := p.lull + p.factor*p.spike // warped length of one segment
	seg := p.lull + p.spike
	n := int(w / segW)
	rem := w - float64(n)*segW
	t := float64(n) * seg
	if rem <= p.lull {
		return t + rem
	}
	return t + p.lull + (rem-p.lull)/p.factor
}

// warp is unwarp's inverse: W(t), the r-weighted clock at real time t.
func (p profile) warp(t float64) float64 {
	if p.constant {
		return t
	}
	seg := p.lull + p.spike
	n := math.Floor(t / seg)
	rem := t - n*seg
	w := n * (p.lull + p.factor*p.spike)
	if rem <= p.lull {
		return w + rem
	}
	return w + p.lull + (rem-p.lull)*p.factor
}

// errf builds a workload-prefixed configuration error.
func errf(format string, args ...any) error {
	return fmt.Errorf("workload: "+format, args...)
}
