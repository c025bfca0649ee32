// Package core implements the paper's primary contribution: the
// probabilistic task pruning mechanism (Section IV, Figures 4 and 5). The
// mechanism plugs into an existing resource-allocation system without
// altering its mapping heuristic and makes two kinds of pruning decisions:
//
//   - Deferring: postpone mapping a batch-queue task whose chance of success
//     on its assigned machine is below the pruning threshold, so a
//     higher-affinity machine may pick it up at a later mapping event.
//   - Dropping: under sufficient oversubscription (detected by the Toggle
//     module), evict machine-queued tasks whose chance of success is below
//     the threshold, raising the chance of the tasks behind them.
//
// Figure 4's support modules are not separate types: the Pruner keeps the
// only state their decisions read. The Toggle is the deadline-miss count
// since the previous mapping event, and the Fairness module is one
// "sufferage" score per task type that biases the threshold so the pruner
// does not systematically starve long task types. toggle.go holds the
// Toggle's engagement policies; this file holds the Pruner.
package core

import (
	"fmt"
	"math"

	"prunesim/internal/machine"
	"prunesim/internal/task"
)

// Config is the "Pruning Configuration" input of Figure 4.
type Config struct {
	// Enabled is the master switch. When false the pruner only performs the
	// baseline behaviour every system in the paper has: reactive dropping of
	// tasks that already missed their deadlines (handled by the simulator).
	Enabled bool
	// Threshold is the pruning threshold beta in [0, 1]: tasks whose chance
	// of success is at or below the (fairness-adjusted) threshold are
	// pruned. The paper's default is 0.5.
	Threshold float64
	// DeferEnabled enables the deferring operation. Deferring requires an
	// arrival queue, so it only takes effect in batch-mode allocation.
	DeferEnabled bool
	// DropMode selects when proactive dropping engages.
	DropMode ToggleMode
	// DropAlpha is the reactive Toggle's oversubscription threshold: the
	// number of deadline misses since the previous mapping event at or above
	// which dropping engages. The paper's reactive configuration uses 1.
	DropAlpha int
	// FairnessFactor is the constant c by which a task type's sufferage
	// score changes on drops and on-time completions. 0 disables fairness.
	FairnessFactor float64
	// ValueAware enables the cost/priority-aware pruning extension the
	// paper's Section VII sketches as future work: the effective pruning
	// threshold of a task is scaled by ValueRef/value (bounded to [0.5,
	// 1.5]), so high-value tasks are pruned more conservatively and
	// low-value tasks more aggressively — while even the most valuable task
	// is still pruned when its chance falls below half the base threshold,
	// which keeps the mechanism from readmitting hopeless work. With all
	// task values at ValueRef it is a no-op.
	ValueAware bool
	// ValueRef is the reference (typical) task value the scaling is
	// centred on; zero defaults to 1.
	ValueRef float64
	// NumTaskTypes sizes the per-type sufferage scores.
	NumTaskTypes int
}

// DefaultConfig returns the paper's default pruning configuration
// (Section V-A): threshold 50%, fairness factor 0.05, reactive Toggle,
// deferring on.
func DefaultConfig(numTaskTypes int) Config {
	return Config{
		Enabled:        true,
		Threshold:      0.5,
		DeferEnabled:   true,
		DropMode:       ToggleReactive,
		DropAlpha:      1,
		FairnessFactor: 0.05,
		NumTaskTypes:   numTaskTypes,
	}
}

// Disabled returns a configuration with probabilistic pruning fully off —
// the unpruned baselines of every figure.
func Disabled(numTaskTypes int) Config {
	return Config{Enabled: false, DropMode: ToggleNever, NumTaskTypes: numTaskTypes}
}

// Validate reports whether the configuration is self-consistent. The
// comparisons are written so that NaN fails them: a NaN threshold or
// factor would otherwise pass every range check and then make every
// chance comparison false.
func (c Config) Validate() error {
	switch {
	case c.NumTaskTypes <= 0:
		return fmt.Errorf("core: NumTaskTypes must be positive, got %d", c.NumTaskTypes)
	case !(c.Threshold >= 0 && c.Threshold <= 1):
		return fmt.Errorf("core: Threshold must be in [0,1], got %v", c.Threshold)
	case !(c.FairnessFactor >= 0) || math.IsInf(c.FairnessFactor, 1):
		return fmt.Errorf("core: FairnessFactor must be non-negative and finite, got %v", c.FairnessFactor)
	case math.IsNaN(c.ValueRef) || math.IsInf(c.ValueRef, 0):
		return fmt.Errorf("core: ValueRef must be finite, got %v", c.ValueRef)
	case c.DropMode > ToggleReactive:
		return fmt.Errorf("core: unknown DropMode %d", c.DropMode)
	case c.DropMode == ToggleReactive && c.DropAlpha < 1:
		return fmt.Errorf("core: reactive Toggle requires DropAlpha >= 1, got %d", c.DropAlpha)
	}
	return nil
}

// Pruner is the pruning mechanism of Figure 4. The simulator drives it with
// the Record* telemetry callbacks and queries Should* at each mapping event.
type Pruner struct {
	cfg Config

	// misses counts the deadline misses (late completions plus reactive
	// drops) since the previous mapping event: the Toggle's input.
	// Proactive drops are a scheduling decision, not an observed miss, so
	// they do not count (a toggle fed by its own drops would never
	// disengage).
	misses int
	// scores holds the Fairness module's sufferage score gamma_k per task
	// type (Section IV-D). Dropping a task of type k raises gamma_k by the
	// fairness factor c; completing one on time lowers it by c. A high
	// score shrinks the effective threshold beta - gamma_k, so a type that
	// has been pruned repeatedly becomes harder to prune again.
	//
	// Scores are clamped at zero from below: the paper's pseudo-code
	// (Figure 5) lets gamma go negative on sustained on-time completions,
	// but an unbounded negative score would inflate the effective threshold
	// of well-served types without limit and eventually prune everything;
	// clamping preserves the stated intent ("keep track of the suffered
	// task types ... avoid biasness against them") while keeping the
	// mechanism stable over long runs.
	scores []float64

	engaged bool // dropping engaged for the current mapping event

	// lowChance is Sweep's proactive DropPending predicate, bound once in
	// New (a closure built per call would allocate on every mapping event).
	lowChance func(machine.Entry) bool
	// dropBuf receives one machine's drops at a time during Sweep; reusing
	// it keeps a sweep that drops tasks from allocating.
	dropBuf []*task.Task
}

// New constructs a Pruner. It panics if cfg fails validation (a
// misconfigured pruner silently skews experiments, so this is fail-fast by
// design).
func New(cfg Config) *Pruner {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Pruner{cfg: cfg, scores: make([]float64, cfg.NumTaskTypes)}
	p.lowChance = func(e machine.Entry) bool {
		return p.ShouldDropValued(e.PCT.ProbLE(e.Task.Deadline), e.Task.Type, e.Task.Value)
	}
	return p
}

// Config returns the active configuration.
func (p *Pruner) Config() Config { return p.cfg }

// BeginEvent starts a mapping event (Figure 5 preamble): it consults the
// Toggle with the deadline misses observed since the previous event and
// latches whether dropping is engaged for this event, then resets the
// per-event miss counter.
func (p *Pruner) BeginEvent() {
	switch p.cfg.DropMode {
	case ToggleAlways:
		p.engaged = p.cfg.Enabled
	case ToggleReactive:
		p.engaged = p.cfg.Enabled && p.misses >= p.cfg.DropAlpha
	default:
		p.engaged = false
	}
	p.misses = 0
}

// Sweep runs Figure 5 steps 1-6 over the machine queues ms at time now:
// the reactive sweep of tasks whose deadlines passed, the Toggle consult
// (BeginEvent), and — with dropping engaged — the proactive sweep of tasks
// whose chance of success is at or below their threshold. Each dropped
// task gets its terminal status (StatusDroppedReactive or
// StatusDroppedProactive) and is recorded before evict is called with
// it and the index of its machine in ms; evict must retire the task, which
// is no longer referenced by any queue.
//
// The reactive step is machine.DropMissed, which reads no PCT: the queues
// it shortens are repaired only when something next reads them. The
// proactive step is DropPending, whose predicate reads each PCT.
//
// Reactive drops from queues the caller owns (the simulator's arrival
// queue) must be recorded before Sweep, so the Toggle sees them in this
// event. evict must not call Sweep; it does not escape, so a method value
// costs no allocation, and Sweep allocates nothing in steady state.
func (p *Pruner) Sweep(ms []*machine.Machine, now float64, evict func(t *task.Task, machine int)) {
	for j, m := range ms {
		p.dropBuf = m.DropMissed(now, p.dropBuf[:0])
		for _, t := range p.dropBuf {
			t.Status = task.StatusDroppedReactive
			p.RecordReactiveDrop(t.Type)
			evict(t, j)
		}
	}
	p.BeginEvent()
	if !p.engaged {
		return
	}
	for j, m := range ms {
		p.dropBuf = m.DropPending(now, p.lowChance, p.dropBuf[:0])
		for _, t := range p.dropBuf {
			t.Status = task.StatusDroppedProactive
			p.RecordProactiveDrop(t.Type)
			evict(t, j)
		}
	}
}

// DroppingEngaged reports whether proactive dropping is active for the
// current mapping event (latched by BeginEvent).
func (p *Pruner) DroppingEngaged() bool { return p.engaged }

// RecordCompletion records a finished task (Figure 5 step 2): an on-time
// completion of type k lowers the type's sufferage score, clamped at zero;
// a late completion counts as a deadline miss for the Toggle.
func (p *Pruner) RecordCompletion(taskType int, onTime bool) {
	if !onTime {
		p.misses++
		return
	}
	p.scores[taskType] -= p.cfg.FairnessFactor
	if p.scores[taskType] < 0 {
		p.scores[taskType] = 0
	}
}

// RecordReactiveDrop records a deadline-miss drop; reactive misses are what
// the reactive Toggle reacts to.
func (p *Pruner) RecordReactiveDrop(int) { p.misses++ }

// RecordProactiveDrop records a probabilistic drop by raising the type's
// sufferage score (Figure 5 step 6).
func (p *Pruner) RecordProactiveDrop(taskType int) {
	p.scores[taskType] += p.cfg.FairnessFactor
}

// EffectiveThreshold returns the fairness-adjusted pruning threshold
// beta - gamma_k for task type k, clamped to [0, 1].
func (p *Pruner) EffectiveThreshold(taskType int) float64 {
	th := p.cfg.Threshold - p.scores[taskType]
	if th < 0 {
		return 0
	}
	if th > 1 {
		return 1
	}
	return th
}

// ShouldDropValued implements Figure 5 step 6: with dropping engaged, a
// machine-queued task of type k whose chance of success is at or below
// beta - gamma_k (scaled by the task's value under Config.ValueAware) is
// dropped. A non-positive value is treated as 1. Callers must invoke
// BeginEvent first.
func (p *Pruner) ShouldDropValued(chance float64, taskType int, value float64) bool {
	if !p.cfg.Enabled || !p.engaged {
		return false
	}
	return chance <= p.valuedThreshold(taskType, value)
}

// ShouldDeferValued implements Figure 5 step 10: a batch-queue task mapped
// by the heuristic is deferred to the next mapping event if its chance of
// success on the assigned machine is at or below beta - gamma_k (scaled by
// the task's value under Config.ValueAware). A non-positive value is
// treated as 1.
func (p *Pruner) ShouldDeferValued(chance float64, taskType int, value float64) bool {
	if !p.cfg.Enabled || !p.cfg.DeferEnabled {
		return false
	}
	return chance <= p.valuedThreshold(taskType, value)
}

// ValuedThreshold returns the exact threshold a ShouldDropValued or
// ShouldDeferValued test compares the chance of success against for a task
// of the given type and value: the fairness-adjusted threshold with the
// value-aware scaling applied. Admission-control responses report it so
// clients can see how far a verdict was from flipping.
func (p *Pruner) ValuedThreshold(taskType int, value float64) float64 {
	return p.valuedThreshold(taskType, value)
}

// valuedThreshold applies the value-aware scaling to the fairness-adjusted
// threshold: the threshold is multiplied by ValueRef/value, bounded to
// [0.5, 1.5] and finally clamped to [0, 1]. A task worth twice the
// reference must have a chance below half the usual threshold to be pruned;
// a task worth half the reference is pruned up to 1.5x the threshold. The
// bounds guarantee that hopeless tasks are pruned regardless of value and
// that low-value tasks with solid chances survive.
func (p *Pruner) valuedThreshold(taskType int, value float64) float64 {
	th := p.EffectiveThreshold(taskType)
	if !p.cfg.ValueAware || value <= 0 {
		return th
	}
	ref := p.cfg.ValueRef
	if ref <= 0 {
		ref = 1
	}
	factor := ref / value
	if factor < 0.5 {
		factor = 0.5
	}
	if factor > 1.5 {
		factor = 1.5
	}
	th *= factor
	if th > 1 {
		return 1
	}
	return th
}
