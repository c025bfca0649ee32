// Pluggable arrival models. An ArrivalModel is compiled once from a Config
// (validating it) and then queried for its declared rate curve and for
// per-type arrival streams; Generate drives the streams, the Fig. 6 /
// arrivals-sensitivity drivers query Rate per timestep without paying
// validation or construction again.
//
// The inhomogeneous-Poisson model samples by thinning (Lewis & Shedler;
// see Hohmann, arXiv:1901.10754 for the conditional-density view):
// candidate arrivals are drawn from a homogeneous process at the curve's
// maximum rate and accepted with probability rate(t)/max — exact for any
// bounded rate function, no discretization error.
package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"prunesim/internal/randx"
)

// Arrival model names (Config.Model).
const (
	// ModelSpiky is the paper's default: Gamma inter-arrivals (variance
	// IATVarianceFrac of the mean) on a warped clock that alternates lulls
	// with SpikeFactor-times-base spikes (Fig. 6).
	ModelSpiky = "spiky"
	// ModelConstant is the paper's constant-rate variant: the same Gamma
	// renewal process without the spiky warp.
	ModelConstant = "constant"
	// ModelPoisson is a homogeneous Poisson process (exponential
	// inter-arrivals) at the rate NumTasks/TimeSpan.
	ModelPoisson = "poisson"
	// ModelDiurnal is an inhomogeneous Poisson process over a declarative
	// rate curve — sinusoidal by default (a daily load cycle), or
	// piecewise-constant — sampled by thinning.
	ModelDiurnal = "diurnal"
	// ModelMMPP is a Markov-modulated Poisson process: a continuous-time
	// chain cycles through states, each holding an exponential sojourn and
	// emitting Poisson arrivals at its own rate — the classic bursty
	// arrival model.
	ModelMMPP = "mmpp"
	// ModelTrace replays explicit arrival timestamps (e.g. from a CSV of a
	// production trace); deadlines and values are still drawn per Eq. 4.
	ModelTrace = "trace"
)

// ModelNames lists the arrival models in presentation order.
func ModelNames() []string {
	return []string{ModelSpiky, ModelConstant, ModelPoisson, ModelDiurnal, ModelMMPP, ModelTrace}
}

// modelName resolves cfg.Model, defaulting empty to the paper's spiky model.
func modelName(cfg Config) string {
	if cfg.Model == "" {
		return ModelSpiky
	}
	return cfg.Model
}

// ArrivalModel is a compiled arrival process bound to one configuration and
// task-type count. Models are immutable and safe for concurrent use; all
// randomness flows through the per-stream RNG.
type ArrivalModel interface {
	// Name returns the model identifier (one of ModelNames).
	Name() string
	// Rate returns the aggregate arrival rate (tasks per time unit, all
	// types combined) the model targets at time t; 0 outside [0, span].
	// For stochastic-rate models (MMPP) this is the expectation over the
	// modulating process.
	Rate(t float64) float64
	// Stream returns a fresh generator for one task type's arrival
	// sub-stream of the given trial, drawing the type's own randomness
	// from rng. Models whose types share trial-level state (MMPP's
	// modulating chain) derive it deterministically from the trial
	// number, so one compiled model serves every trial of a scenario.
	Stream(taskType, trial int, rng *randx.RNG) ArrivalStream
}

// ArrivalStream yields successive arrival times for one task type in
// increasing order.
type ArrivalStream interface {
	// Next returns the next arrival time, or ok == false once the process
	// has left the workload span.
	Next() (t float64, ok bool)
}

// NewArrivalModel validates cfg and compiles its arrival model for a
// workload of numTypes task types.
func NewArrivalModel(cfg Config, numTypes int) (ArrivalModel, error) {
	if numTypes <= 0 {
		return nil, errf("arrival model needs a positive task-type count, got %d", numTypes)
	}
	cfg = withModelDefaults(cfg)
	if err := validate(cfg); err != nil {
		return nil, err
	}
	switch modelName(cfg) {
	case ModelSpiky, ModelConstant:
		return newGammaModel(cfg, numTypes), nil
	case ModelPoisson:
		return newPoissonModel(cfg, numTypes), nil
	case ModelDiurnal:
		return newDiurnalModel(cfg, numTypes), nil
	case ModelMMPP:
		return newMMPPModel(cfg, numTypes), nil
	case ModelTrace:
		return newTraceModel(cfg, numTypes)
	default:
		return nil, errf("unknown arrival model %q (have %v)", cfg.Model, ModelNames())
	}
}

// Validate checks a workload configuration for numTypes task types without
// generating anything. It is the scenario layer's schema-validation hook.
func Validate(cfg Config, numTypes int) error {
	_, err := NewArrivalModel(cfg, numTypes)
	return err
}

// withModelDefaults fills a fully zero model sub-config with a sensible
// default shape (the scenario layer fills the same values explicitly, so
// JSON omission and programmatic zero values agree).
func withModelDefaults(cfg Config) Config {
	switch modelName(cfg) {
	case ModelDiurnal:
		if len(cfg.Diurnal.Pieces) == 0 && cfg.Diurnal.Cycles == 0 {
			cfg.Diurnal.Cycles = DefaultDiurnalCycles
			if cfg.Diurnal.Amplitude == 0 && cfg.Diurnal.Phase == 0 {
				cfg.Diurnal.Amplitude = DefaultDiurnalAmplitude
			}
		}
	case ModelMMPP:
		if len(cfg.MMPP.Rates) == 0 && len(cfg.MMPP.MeanHold) == 0 && cfg.TimeSpan > 0 {
			cfg.MMPP.Rates = []float64{1, DefaultMMPPBurstRate}
			cfg.MMPP.MeanHold = []float64{
				cfg.TimeSpan / DefaultMMPPHoldDivisors[0],
				cfg.TimeSpan / DefaultMMPPHoldDivisors[1],
			}
		}
	}
	return cfg
}

// Defaults for zero-valued diurnal and MMPP sub-configs: one sinusoidal
// cycle swinging ±80% around the mean, and a two-state MMPP whose burst
// state runs at 8x the calm rate for 1/4 of the time (holds span/8 and
// span/32 — comparable burst occupancy to the paper's spiky profile).
const (
	DefaultDiurnalCycles    = 1.0
	DefaultDiurnalAmplitude = 0.8
	DefaultMMPPBurstRate    = 8.0
)

// DefaultMMPPHoldDivisors derive the default MMPP mean holds from the span.
var DefaultMMPPHoldDivisors = [2]float64{8, 32}

// validate rejects invalid configurations with errors (never panics: a bad
// config that slips past scenario-level validation must fail the job, not
// crash the prunesimd worker that picked it up).
func validate(cfg Config) error {
	model := modelName(cfg)
	switch {
	case model != ModelTrace && cfg.NumTasks <= 0:
		return errf("NumTasks must be positive, got %d", cfg.NumTasks)
	case cfg.TimeSpan <= 0:
		return errf("TimeSpan must be positive, got %v", cfg.TimeSpan)
	case cfg.BetaHi < cfg.BetaLo || cfg.BetaLo < 0:
		return errf("beta bounds need 0 <= BetaLo <= BetaHi, got [%v, %v]", cfg.BetaLo, cfg.BetaHi)
	case cfg.ValueHi > 0 && (cfg.ValueLo <= 0 || cfg.ValueHi < cfg.ValueLo):
		return errf("task values require 0 < ValueLo <= ValueHi, got [%v, %v]", cfg.ValueLo, cfg.ValueHi)
	}
	switch model {
	case ModelSpiky, ModelConstant:
		if cfg.IATVarianceFrac <= 0 {
			return errf("IATVarianceFrac must be positive, got %v", cfg.IATVarianceFrac)
		}
		if model == ModelSpiky && (cfg.NumSpikes <= 0 || cfg.SpikeFactor <= 1) {
			return errf("spiky arrivals require NumSpikes > 0 and SpikeFactor > 1, got %d, %v",
				cfg.NumSpikes, cfg.SpikeFactor)
		}
	case ModelPoisson:
		// Common checks suffice.
	case ModelDiurnal:
		return cfg.Diurnal.validate()
	case ModelMMPP:
		return cfg.MMPP.validate()
	case ModelTrace:
		return cfg.Trace.validate()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Gamma renewal models (spiky / constant) — the paper's Section V-B recipe.

// gammaModel draws Gamma inter-arrival times on a clock warped by the rate
// profile, so spikes compress gaps by SpikeFactor without changing their
// shape.
type gammaModel struct {
	name      string
	cfg       Config
	prof      profile
	numTypes  int
	totalBase float64 // aggregate base (lull) rate, all types
}

func newGammaModel(cfg Config, numTypes int) *gammaModel {
	prof := newProfile(cfg)
	return &gammaModel{
		name:      modelName(cfg),
		cfg:       cfg,
		prof:      prof,
		numTypes:  numTypes,
		totalBase: float64(cfg.NumTasks) / (cfg.TimeSpan * prof.meanRateFactor()),
	}
}

func (g *gammaModel) Name() string { return g.name }

func (g *gammaModel) Rate(t float64) float64 {
	return g.totalBase * g.prof.factorAt(t)
}

func (g *gammaModel) Stream(taskType, trial int, rng *randx.RNG) ArrivalStream {
	// Expected tasks of this type and the base (lull) rate that yields
	// them given the profile's rate inflation. The expression order
	// matches the pre-ArrivalModel generator exactly, so gamma-spiky
	// trials stay bit-for-bit reproducible across the refactor.
	perType := float64(g.cfg.NumTasks) / float64(g.numTypes)
	baseRate := perType / (g.cfg.TimeSpan * g.prof.meanRateFactor())
	meanIAT := 1 / baseRate
	shape := meanIAT / g.cfg.IATVarianceFrac // Gamma: var = mean^2/shape = frac*mean
	return &gammaStream{
		rng:   rng,
		prof:  g.prof,
		span:  g.cfg.TimeSpan,
		shape: shape,
		scale: meanIAT / shape,
	}
}

type gammaStream struct {
	rng          *randx.RNG
	prof         profile
	span         float64
	shape, scale float64
	warped       float64
}

func (s *gammaStream) Next() (float64, bool) {
	// Arrivals are generated on a "warped clock" that runs at the
	// profile's instantaneous rate factor.
	s.warped += s.rng.Gamma(s.shape, s.scale)
	t := s.prof.unwarp(s.warped)
	if t > s.span {
		return 0, false
	}
	return t, true
}

// ---------------------------------------------------------------------------
// Homogeneous Poisson.

type poissonModel struct {
	span        float64
	totalRate   float64
	perTypeMean float64 // mean inter-arrival gap per type
}

func newPoissonModel(cfg Config, numTypes int) *poissonModel {
	rate := float64(cfg.NumTasks) / cfg.TimeSpan
	return &poissonModel{
		span:        cfg.TimeSpan,
		totalRate:   rate,
		perTypeMean: float64(numTypes) / rate,
	}
}

func (p *poissonModel) Name() string { return ModelPoisson }

func (p *poissonModel) Rate(t float64) float64 {
	if t < 0 || t > p.span {
		return 0
	}
	return p.totalRate
}

func (p *poissonModel) Stream(taskType, trial int, rng *randx.RNG) ArrivalStream {
	return &poissonStream{rng: rng, span: p.span, mean: p.perTypeMean}
}

type poissonStream struct {
	rng  *randx.RNG
	span float64
	mean float64
	t    float64
}

func (s *poissonStream) Next() (float64, bool) {
	s.t += s.rng.Exponential(s.mean)
	if s.t > s.span {
		return 0, false
	}
	return s.t, true
}

// ---------------------------------------------------------------------------
// Inhomogeneous Poisson over a declarative rate curve, sampled by thinning.

// DiurnalConfig declares the relative rate curve of the diurnal
// (inhomogeneous-Poisson) model. The curve is normalized so the expected
// task count over the span equals NumTasks; only its shape matters here.
// The JSON tags are the scenario schema's workload.rate block.
type DiurnalConfig struct {
	// Cycles is the number of full sinusoidal periods across the span
	// (default 1 — one "day").
	Cycles float64 `json:"cycles,omitempty"`
	// Amplitude in (0, 1] scales the sinusoidal swing around the mean
	// level: level(t) = 1 + Amplitude*sin(2*pi*Cycles*t/span + Phase).
	// (0 would be a flat curve — use ModelPoisson for that.)
	Amplitude float64 `json:"amplitude,omitempty"`
	// Phase shifts the sinusoid, in radians.
	Phase float64 `json:"phase,omitempty"`
	// Pieces, when non-empty, replaces the sinusoid with a
	// piecewise-constant curve.
	Pieces []RatePiece `json:"pieces,omitempty"`
}

// RatePiece is one segment of a piecewise-constant rate curve.
type RatePiece struct {
	// Until is the segment's end as a fraction of the span, in (0, 1];
	// pieces must be strictly increasing and the last must reach 1.
	Until float64 `json:"until"`
	// Level is the segment's relative rate, >= 0.
	Level float64 `json:"level"`
}

func (d DiurnalConfig) validate() error {
	if len(d.Pieces) > 0 {
		prev, anyPositive := 0.0, false
		for i, p := range d.Pieces {
			if p.Until <= prev || p.Until > 1 {
				return errf("diurnal piece %d: until values must increase within (0, 1], got %v after %v", i, p.Until, prev)
			}
			if p.Level < 0 || math.IsNaN(p.Level) || math.IsInf(p.Level, 0) {
				return errf("diurnal piece %d: level must be finite and >= 0, got %v", i, p.Level)
			}
			anyPositive = anyPositive || p.Level > 0
			prev = p.Until
		}
		if prev != 1 {
			return errf("diurnal pieces must cover the span: last until is %v, want 1", prev)
		}
		if !anyPositive {
			return errf("diurnal pieces are all at level 0 — no arrivals possible")
		}
		return nil
	}
	if d.Cycles <= 0 {
		return errf("diurnal Cycles must be positive, got %v", d.Cycles)
	}
	if d.Amplitude <= 0 || d.Amplitude > 1 {
		// Amplitude 0 would be a flat curve — a Poisson process wearing a
		// diurnal label; ModelPoisson says that explicitly.
		return errf("diurnal Amplitude must be in (0, 1], got %v (use the poisson model for a flat rate)", d.Amplitude)
	}
	return nil
}

type diurnalModel struct {
	cfg      DiurnalConfig
	span     float64
	unit     float64 // aggregate rate at relative level 1
	maxLevel float64
	numTypes int
}

func newDiurnalModel(cfg Config, numTypes int) *diurnalModel {
	d := &diurnalModel{cfg: cfg.Diurnal, span: cfg.TimeSpan, numTypes: numTypes}
	d.unit = float64(cfg.NumTasks) / (cfg.TimeSpan * d.meanLevel())
	d.maxLevel = d.curveMax()
	return d
}

// level returns the relative rate at time t (t already within [0, span]).
func (d *diurnalModel) level(t float64) float64 {
	if len(d.cfg.Pieces) > 0 {
		frac := t / d.span
		for _, p := range d.cfg.Pieces {
			if frac <= p.Until {
				return p.Level
			}
		}
		return d.cfg.Pieces[len(d.cfg.Pieces)-1].Level
	}
	return 1 + d.cfg.Amplitude*math.Sin(2*math.Pi*d.cfg.Cycles*t/d.span+d.cfg.Phase)
}

// meanLevel is the time-average of level over the span, computed
// analytically so normalization carries no discretization error.
func (d *diurnalModel) meanLevel() float64 {
	if len(d.cfg.Pieces) > 0 {
		sum, prev := 0.0, 0.0
		for _, p := range d.cfg.Pieces {
			sum += p.Level * (p.Until - prev)
			prev = p.Until
		}
		return sum
	}
	// Integral of 1 + A*sin(w*t/span + phi) over [0, span], divided by span.
	w := 2 * math.Pi * d.cfg.Cycles
	return 1 + d.cfg.Amplitude*(math.Cos(d.cfg.Phase)-math.Cos(w+d.cfg.Phase))/w
}

// curveMax is an upper bound on level(t), the thinning envelope.
func (d *diurnalModel) curveMax() float64 {
	if len(d.cfg.Pieces) > 0 {
		max := 0.0
		for _, p := range d.cfg.Pieces {
			if p.Level > max {
				max = p.Level
			}
		}
		return max
	}
	return 1 + d.cfg.Amplitude
}

func (d *diurnalModel) Name() string { return ModelDiurnal }

func (d *diurnalModel) Rate(t float64) float64 {
	if t < 0 || t > d.span {
		return 0
	}
	return d.unit * d.level(t)
}

func (d *diurnalModel) Stream(taskType, trial int, rng *randx.RNG) ArrivalStream {
	return &thinningStream{
		rng:      rng,
		span:     d.span,
		envMean:  float64(d.numTypes) / (d.unit * d.maxLevel),
		maxLevel: d.maxLevel,
		level:    d.level,
	}
}

// thinningStream samples an inhomogeneous Poisson process: candidates from
// a homogeneous process at the envelope rate, accepted with probability
// level(t)/maxLevel.
type thinningStream struct {
	rng      *randx.RNG
	span     float64
	envMean  float64 // mean candidate gap at the envelope rate
	maxLevel float64
	level    func(t float64) float64
	t        float64
}

func (s *thinningStream) Next() (float64, bool) {
	for {
		s.t += s.rng.Exponential(s.envMean)
		if s.t > s.span {
			return 0, false
		}
		if s.rng.Float64()*s.maxLevel < s.level(s.t) {
			return s.t, true
		}
	}
}

// ---------------------------------------------------------------------------
// Markov-modulated Poisson process.

// MMPPConfig declares a cyclic Markov-modulated Poisson process: the chain
// visits states 0, 1, ..., n-1, 0, ... with exponential sojourns; state i
// emits Poisson arrivals at Rates[i] times the normalized base rate. The
// stationary mix is normalized so the expected task count matches NumTasks.
// The JSON tags are the scenario schema's workload.mmpp block.
type MMPPConfig struct {
	// Rates are per-state relative arrival-rate multipliers (> 0), at
	// least two states. A classic bursty choice: [1, 8].
	Rates []float64 `json:"rates"`
	// MeanHold are the mean state sojourn times, in workload time units,
	// same length as Rates.
	MeanHold []float64 `json:"mean_hold"`
}

func (m MMPPConfig) validate() error {
	if len(m.Rates) < 2 || len(m.MeanHold) != len(m.Rates) {
		return errf("mmpp needs >= 2 states with matching Rates/MeanHold lengths, got %d/%d",
			len(m.Rates), len(m.MeanHold))
	}
	for i := range m.Rates {
		if m.Rates[i] <= 0 || math.IsNaN(m.Rates[i]) || math.IsInf(m.Rates[i], 0) {
			return errf("mmpp state %d: rate multiplier must be finite and > 0, got %v", i, m.Rates[i])
		}
		if m.MeanHold[i] <= 0 || math.IsNaN(m.MeanHold[i]) || math.IsInf(m.MeanHold[i], 0) {
			return errf("mmpp state %d: mean hold must be finite and > 0, got %v", i, m.MeanHold[i])
		}
	}
	return nil
}

type mmppModel struct {
	cfg        MMPPConfig
	span       float64
	seed       uint64
	holdSum    float64   // Σ MeanHold: stationary weights for the start state
	meanRate   float64   // aggregate expected rate
	stateMeans []float64 // per-type mean inter-arrival gap per state
}

func newMMPPModel(cfg Config, numTypes int) *mmppModel {
	m := &mmppModel{cfg: cfg.MMPP, span: cfg.TimeSpan, seed: cfg.Seed}
	// Stationary occupancy of the cyclic chain is proportional to the
	// mean sojourns; normalize the base so E[count] = NumTasks.
	var holdSum, mix float64
	for i := range m.cfg.Rates {
		holdSum += m.cfg.MeanHold[i]
		mix += m.cfg.Rates[i] * m.cfg.MeanHold[i]
	}
	meanFactor := mix / holdSum
	m.holdSum = holdSum
	m.meanRate = float64(cfg.NumTasks) / cfg.TimeSpan
	base := m.meanRate / (meanFactor * float64(numTypes)) // per-type rate at multiplier 1
	m.stateMeans = make([]float64, len(m.cfg.Rates))
	for i, r := range m.cfg.Rates {
		m.stateMeans[i] = 1 / (base * r)
	}
	return m
}

func (m *mmppModel) Name() string { return ModelMMPP }

// Rate returns the expected aggregate rate: the modulating chain is
// stochastic, so the declared curve is its stationary mean.
func (m *mmppModel) Rate(t float64) float64 {
	if t < 0 || t > m.span {
		return 0
	}
	return m.meanRate
}

// mmppChainSalt derives the modulating chain's RNG stream from the
// workload seed: one chain per trial, shared by every task type.
const mmppChainSalt = 0x6d6d7070 // "mmpp"

// Stream gives every task type of a trial the SAME modulating chain —
// replayed from a deterministic per-trial RNG — so bursts align across
// types and the aggregate process actually reaches the burst-state rate.
// Per-type independent chains would dilute the declared burstiness by a
// factor that grows with the type count (12 types at 20% burst occupancy
// virtually never burst together). Arrival draws within each state still
// come from the type's own rng, keeping types conditionally independent
// given the shared rate.
func (m *mmppModel) Stream(taskType, trial int, rng *randx.RNG) ArrivalStream {
	chain := randx.Split(m.seed^mmppChainSalt, uint64(trial))
	s := &mmppStream{rng: rng, chain: chain, span: m.span, holds: m.cfg.MeanHold, means: m.stateMeans}
	// Start in the stationary (hold-weighted) state distribution, not
	// deterministically in state 0: a fixed calm start would bias the
	// realized burst occupancy low over a finite span, undershooting the
	// NumTasks target. Exponential sojourns are memoryless, so drawing a
	// full hold for the initial state is exactly the stationary residual.
	u := chain.Float64() * m.holdSum
	for u >= s.holds[s.state] && s.state < len(s.holds)-1 {
		u -= s.holds[s.state]
		s.state++
	}
	s.stateEnd = chain.Exponential(s.holds[s.state])
	return s
}

type mmppStream struct {
	rng      *randx.RNG // per-type arrival draws
	chain    *randx.RNG // shared-by-replay modulating chain
	span     float64
	holds    []float64
	means    []float64
	state    int
	stateEnd float64
	t        float64
}

func (s *mmppStream) Next() (float64, bool) {
	for {
		// Candidate gap at the current state's rate; by memorylessness the
		// leftover gap can be discarded when the state flips first.
		gap := s.rng.Exponential(s.means[s.state])
		if s.t+gap <= s.stateEnd {
			s.t += gap
			if s.t > s.span {
				return 0, false
			}
			return s.t, true
		}
		s.t = s.stateEnd
		if s.t > s.span {
			return 0, false
		}
		s.state = (s.state + 1) % len(s.means)
		s.stateEnd = s.t + s.chain.Exponential(s.holds[s.state])
	}
}

// ---------------------------------------------------------------------------
// Trace replay.

// TraceConfig replays explicit arrival timestamps — real-trace studies plug
// in here. Deadlines (Eq. 4) and optional values are still drawn from the
// workload RNG, so (trace, seed) pins the task list exactly. The JSON tags
// are the scenario schema's workload.trace block.
type TraceConfig struct {
	// Path documents where the arrivals came from (error messages only;
	// loading happens in the scenario layer or via LoadTraceCSV).
	Path string `json:"path,omitempty"`
	// Arrivals are the timestamps to replay, within [0, TimeSpan];
	// arrivals beyond the span are dropped.
	Arrivals []float64 `json:"arrivals,omitempty"`
	// Types optionally assigns a task type to each arrival (same length
	// as Arrivals). Empty assigns types round-robin in time order.
	Types []int `json:"types,omitempty"`
}

func (t TraceConfig) validate() error {
	src := t.Path
	if src == "" {
		src = "inline trace"
	}
	if len(t.Arrivals) == 0 {
		return errf("%s: trace model needs at least one arrival timestamp", src)
	}
	if len(t.Types) > 0 && len(t.Types) != len(t.Arrivals) {
		return errf("%s: trace has %d types for %d arrivals", src, len(t.Types), len(t.Arrivals))
	}
	for i, a := range t.Arrivals {
		if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			return errf("%s: arrival %d is %v, want finite and >= 0", src, i, a)
		}
	}
	for i, tt := range t.Types {
		if tt < 0 {
			return errf("%s: arrival %d has negative task type %d", src, i, tt)
		}
	}
	return nil
}

// traceRateBins is the histogram resolution of the trace model's empirical
// declared rate curve.
const traceRateBins = 50

type traceModel struct {
	span    float64
	perType [][]float64
	rate    []float64 // empirical aggregate rate per bin
	binW    float64
}

func newTraceModel(cfg Config, numTypes int) (*traceModel, error) {
	if err := cfg.Trace.validate(); err != nil {
		return nil, err
	}
	type ta struct {
		t  float64
		tt int
	}
	all := make([]ta, 0, len(cfg.Trace.Arrivals))
	for i, a := range cfg.Trace.Arrivals {
		if a > cfg.TimeSpan {
			continue // span truncates the trace
		}
		tt := -1
		if len(cfg.Trace.Types) > 0 {
			tt = cfg.Trace.Types[i]
			if tt >= numTypes {
				return nil, errf("trace arrival %d has task type %d, but the PET matrix has %d types",
					i, tt, numTypes)
			}
		}
		all = append(all, ta{t: a, tt: tt})
	}
	if len(all) == 0 {
		return nil, errf("trace has no arrivals within TimeSpan %v", cfg.TimeSpan)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].t < all[j].t })
	m := &traceModel{
		span:    cfg.TimeSpan,
		perType: make([][]float64, numTypes),
		rate:    make([]float64, traceRateBins),
		binW:    cfg.TimeSpan / traceRateBins,
	}
	for i, a := range all {
		tt := a.tt
		if tt < 0 {
			tt = i % numTypes // round-robin in time order
		}
		m.perType[tt] = append(m.perType[tt], a.t)
		bin := int(a.t / m.binW)
		if bin >= traceRateBins {
			bin = traceRateBins - 1
		}
		m.rate[bin] += 1 / m.binW
	}
	return m, nil
}

func (m *traceModel) Name() string { return ModelTrace }

// Rate returns the empirical binned rate of the trace itself.
func (m *traceModel) Rate(t float64) float64 {
	if t < 0 || t > m.span {
		return 0
	}
	bin := int(t / m.binW)
	if bin >= traceRateBins {
		bin = traceRateBins - 1
	}
	return m.rate[bin]
}

func (m *traceModel) Stream(taskType, trial int, rng *randx.RNG) ArrivalStream {
	return &traceStream{arrivals: m.perType[taskType]}
}

type traceStream struct {
	arrivals []float64
	next     int
}

func (s *traceStream) Next() (float64, bool) {
	if s.next >= len(s.arrivals) {
		return 0, false
	}
	t := s.arrivals[s.next]
	s.next++
	return t, true
}

// LoadTraceCSV reads arrival timestamps from a CSV file: one row per
// arrival, `time` or `time,type` columns, with blank lines, `#` comments
// and a non-numeric header row skipped. It returns the timestamps and the
// per-arrival types (nil when no file row carried one).
func LoadTraceCSV(path string) (arrivals []float64, types []int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, errf("trace: %w", err)
	}
	defer f.Close()
	arrivals, types, err = ParseTraceCSV(f)
	if err != nil {
		return nil, nil, errf("trace %s: %w", path, err)
	}
	return arrivals, types, nil
}

// ParseTraceCSV is LoadTraceCSV over a reader.
func ParseTraceCSV(r io.Reader) (arrivals []float64, types []int, err error) {
	sc := bufio.NewScanner(r)
	line, typed := 0, false
	headerAllowed := true // only the FIRST data row may be a header
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		t, ferr := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
		if ferr != nil {
			if headerAllowed {
				// A leading "time,type" header row; any later non-numeric
				// timestamp is corrupted data, not a header, and silently
				// skipping it would lose arrivals.
				headerAllowed = false
				continue
			}
			return nil, nil, fmt.Errorf("line %d: bad timestamp %q", line, fields[0])
		}
		headerAllowed = false
		tt := -1
		if len(fields) > 1 && strings.TrimSpace(fields[1]) != "" {
			tt, ferr = strconv.Atoi(strings.TrimSpace(fields[1]))
			if ferr != nil {
				return nil, nil, fmt.Errorf("line %d: bad task type %q", line, fields[1])
			}
			typed = true
		}
		arrivals = append(arrivals, t)
		types = append(types, tt)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if !typed {
		return arrivals, nil, nil
	}
	for i, tt := range types {
		if tt < 0 {
			return nil, nil, fmt.Errorf("arrival %d has no task type but other rows do", i)
		}
	}
	return arrivals, types, nil
}
