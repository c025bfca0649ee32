package core

import (
	"math"
	"testing"
)

// The ref* types are the pruner's earlier composition of Figure 4's three
// support modules — Toggle, Fairness and Accounting as separate types —
// kept as the reference FuzzPrunerOps holds the Pruner's inlined state
// against. Accounting keeps only its miss window: its per-type counters
// were never read by a decision.

type refToggle struct {
	mode  ToggleMode
	alpha int
}

func (t *refToggle) Engaged(missesSinceEvent int) bool {
	switch t.mode {
	case ToggleAlways:
		return true
	case ToggleReactive:
		return missesSinceEvent >= t.alpha
	default:
		return false
	}
}

type refFairness struct {
	factor float64
	scores []float64
}

func (f *refFairness) OnDropped(taskType int) {
	f.scores[taskType] += f.factor
}

func (f *refFairness) OnCompletedOnTime(taskType int) {
	f.scores[taskType] -= f.factor
	if f.scores[taskType] < 0 {
		f.scores[taskType] = 0
	}
}

type refAccounting struct{ missesSinceEvent int }

func (a *refAccounting) RecordCompletion(onTime bool) {
	if !onTime {
		a.missesSinceEvent++
	}
}

func (a *refAccounting) RecordReactiveDrop() { a.missesSinceEvent++ }

type refPruner struct {
	cfg     Config
	tog     *refToggle
	fair    *refFairness
	acct    *refAccounting
	engaged bool
}

func newRefPruner(cfg Config) *refPruner {
	return &refPruner{
		cfg:  cfg,
		tog:  &refToggle{mode: cfg.DropMode, alpha: cfg.DropAlpha},
		fair: &refFairness{factor: cfg.FairnessFactor, scores: make([]float64, cfg.NumTaskTypes)},
		acct: &refAccounting{},
	}
}

func (p *refPruner) BeginEvent() {
	p.engaged = p.cfg.Enabled && p.tog.Engaged(p.acct.missesSinceEvent)
	p.acct.missesSinceEvent = 0
}

func (p *refPruner) RecordCompletion(taskType int, onTime bool) {
	p.acct.RecordCompletion(onTime)
	if onTime {
		p.fair.OnCompletedOnTime(taskType)
	}
}

func (p *refPruner) RecordReactiveDrop() { p.acct.RecordReactiveDrop() }

func (p *refPruner) RecordProactiveDrop(taskType int) { p.fair.OnDropped(taskType) }

func (p *refPruner) EffectiveThreshold(taskType int) float64 {
	th := p.cfg.Threshold - p.fair.scores[taskType]
	if th < 0 {
		return 0
	}
	if th > 1 {
		return 1
	}
	return th
}

func (p *refPruner) ValuedThreshold(taskType int, value float64) float64 {
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

func (p *refPruner) ShouldDropValued(chance float64, taskType int, value float64) bool {
	if !p.cfg.Enabled || !p.engaged {
		return false
	}
	return chance <= p.ValuedThreshold(taskType, value)
}

func (p *refPruner) ShouldDeferValued(chance float64, taskType int, value float64) bool {
	if !p.cfg.Enabled || !p.cfg.DeferEnabled {
		return false
	}
	return chance <= p.ValuedThreshold(taskType, value)
}

// FuzzPrunerOps: any valid configuration and any sequence of completions
// (on time or late), reactive and proactive drops and mapping events keep
// every decision the Pruner reports bitwise-equal to the reference
// composition's.
func FuzzPrunerOps(f *testing.F) {
	f.Add(uint8(2), uint8(1), 0.5, 0.05, false, 0.0, uint8(3), []byte{2, 4, 3, 3, 4, 0, 0, 0, 1, 4})
	f.Add(uint8(1), uint8(0), 0.3, 0.1, true, 2.0, uint8(2), []byte{3, 8, 13, 0, 5, 4, 9, 1})
	f.Add(uint8(2), uint8(3), 0.7, 0.0, true, 0.0, uint8(1), []byte{1, 1, 4, 1, 1, 1, 4, 2})
	f.Add(uint8(0), uint8(1), 1.0, 0.3, false, 1.0, uint8(4), []byte{0, 3, 7, 11, 15, 4})
	f.Fuzz(func(t *testing.T, mode, alpha uint8, threshold, factor float64, valueAware bool, valueRef float64, types uint8, ops []byte) {
		cfg := Config{
			Enabled:        mode&4 == 0,
			DeferEnabled:   mode&8 == 0,
			Threshold:      threshold,
			DropMode:       ToggleMode(mode % 3),
			DropAlpha:      int(alpha),
			FairnessFactor: factor,
			ValueAware:     valueAware,
			ValueRef:       valueRef,
			NumTaskTypes:   1 + int(types%4),
		}
		if cfg.Validate() != nil {
			t.Skip()
		}
		p, ref := New(cfg), newRefPruner(cfg)
		values := []float64{-1, 0, 0.3, 1, 2.5, valueRef}
		for i, op := range ops {
			k := int(op>>3) % cfg.NumTaskTypes
			switch op % 5 {
			case 0:
				p.RecordCompletion(k, true)
				ref.RecordCompletion(k, true)
			case 1:
				p.RecordCompletion(k, false)
				ref.RecordCompletion(k, false)
			case 2:
				p.RecordReactiveDrop(k)
				ref.RecordReactiveDrop()
			case 3:
				p.RecordProactiveDrop(k)
				ref.RecordProactiveDrop(k)
			case 4:
				p.BeginEvent()
				ref.BeginEvent()
			}
			if got, want := p.DroppingEngaged(), ref.engaged; got != want {
				t.Fatalf("op %d: DroppingEngaged = %v, reference %v", i, got, want)
			}
			for k := 0; k < cfg.NumTaskTypes; k++ {
				if got, want := p.EffectiveThreshold(k), ref.EffectiveThreshold(k); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("op %d type %d: EffectiveThreshold = %v, reference %v", i, k, got, want)
				}
				for _, v := range values {
					th := ref.ValuedThreshold(k, v)
					if got := p.ValuedThreshold(k, v); math.Float64bits(got) != math.Float64bits(th) {
						t.Fatalf("op %d type %d value %v: ValuedThreshold = %v, reference %v", i, k, v, got, th)
					}
					for _, c := range []float64{0, th, math.Nextafter(th, 2), 0.5, 1} {
						if got, want := p.ShouldDropValued(c, k, v), ref.ShouldDropValued(c, k, v); got != want {
							t.Fatalf("op %d type %d value %v chance %v: ShouldDropValued = %v, reference %v", i, k, v, c, got, want)
						}
						if got, want := p.ShouldDeferValued(c, k, v), ref.ShouldDeferValued(c, k, v); got != want {
							t.Fatalf("op %d type %d value %v chance %v: ShouldDeferValued = %v, reference %v", i, k, v, c, got, want)
						}
					}
				}
			}
		}
	})
}
