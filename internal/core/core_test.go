package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig(12)
	if c.Threshold != 0.5 {
		t.Errorf("Threshold = %v, want 0.5", c.Threshold)
	}
	if c.FairnessFactor != 0.05 {
		t.Errorf("FairnessFactor = %v, want 0.05", c.FairnessFactor)
	}
	if c.DropMode != ToggleReactive || c.DropAlpha != 1 {
		t.Errorf("Toggle = %v/%d, want reactive/1", c.DropMode, c.DropAlpha)
	}
	if !c.Enabled || !c.DeferEnabled {
		t.Error("defaults should enable pruning and deferring")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{NumTaskTypes: 0},
		{NumTaskTypes: 3, Threshold: -0.1},
		{NumTaskTypes: 3, Threshold: 1.1},
		{NumTaskTypes: 3, FairnessFactor: -1},
		{NumTaskTypes: 3, DropMode: ToggleMode(9)},
		{NumTaskTypes: 3, DropMode: ToggleReactive, DropAlpha: 0},
		{NumTaskTypes: 3, Threshold: math.NaN()},
		{NumTaskTypes: 3, FairnessFactor: math.NaN()},
		{NumTaskTypes: 3, FairnessFactor: math.Inf(1)},
		{NumTaskTypes: 3, ValueAware: true, ValueRef: math.NaN()},
		{NumTaskTypes: 3, ValueAware: true, ValueRef: math.Inf(1)},
		{NumTaskTypes: 3, ValueAware: true, ValueRef: math.Inf(-1)},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d should fail validation: %+v", i, c)
		}
	}
	if err := Disabled(5).Validate(); err != nil {
		t.Errorf("Disabled config invalid: %v", err)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{})
}

// TestToggleModes: BeginEvent engages dropping per the configured mode
// and alpha from the misses recorded since the previous event, and never
// with pruning disabled.
func TestToggleModes(t *testing.T) {
	for _, mode := range []ToggleMode{ToggleNever, ToggleAlways, ToggleReactive} {
		for _, alpha := range []int{1, 2, 3} {
			for misses := 0; misses <= 5; misses++ {
				for _, enabled := range []bool{false, true} {
					cfg := DefaultConfig(2)
					cfg.Enabled, cfg.DropMode, cfg.DropAlpha = enabled, mode, alpha
					p := New(cfg)
					for i := 0; i < misses; i++ {
						p.RecordReactiveDrop(i % 2)
					}
					p.BeginEvent()
					want := enabled && (mode == ToggleAlways || mode == ToggleReactive && misses >= alpha)
					if got := p.DroppingEngaged(); got != want {
						t.Errorf("%v alpha=%d misses=%d enabled=%v: engaged=%v, want %v",
							mode, alpha, misses, enabled, got, want)
					}
				}
			}
		}
	}
}

func TestToggleModeString(t *testing.T) {
	if ToggleNever.String() != "never" || ToggleAlways.String() != "always" ||
		ToggleReactive.String() != "reactive" || ToggleMode(9).String() != "unknown" {
		t.Fatal("mode strings wrong")
	}
}

func TestFairnessScores(t *testing.T) {
	p := New(DefaultConfig(3))
	p.RecordProactiveDrop(1)
	p.RecordProactiveDrop(1)
	if got := p.EffectiveThreshold(1); math.Abs(got-0.40) > 1e-12 {
		t.Fatalf("threshold after two drops = %v, want 0.40", got)
	}
	p.RecordCompletion(1, true)
	if got := p.EffectiveThreshold(1); math.Abs(got-0.45) > 1e-12 {
		t.Fatalf("threshold after completion = %v, want 0.45", got)
	}
	p.RecordCompletion(1, false) // late completions leave the score alone
	if got := p.EffectiveThreshold(1); math.Abs(got-0.45) > 1e-12 {
		t.Fatalf("threshold after late completion = %v, want 0.45", got)
	}
	if p.EffectiveThreshold(0) != 0.5 || p.EffectiveThreshold(2) != 0.5 {
		t.Fatal("unrelated types perturbed")
	}
}

// TestFairnessClampsAtZero: sustained on-time completions stop lowering the
// score at zero, so the threshold stays at beta and the next drop raises
// the score from zero.
func TestFairnessClampsAtZero(t *testing.T) {
	p := New(DefaultConfig(1))
	for i := 0; i < 100; i++ {
		p.RecordCompletion(0, true)
	}
	if got := p.EffectiveThreshold(0); got != 0.5 {
		t.Fatalf("threshold = %v, want 0.5 (score clamped at 0)", got)
	}
	p.RecordProactiveDrop(0)
	if got := p.EffectiveThreshold(0); math.Abs(got-0.45) > 1e-12 {
		t.Fatalf("threshold after a drop = %v, want 0.45", got)
	}
}

// TestMissWindow: late completions and reactive drops count towards the
// Toggle's window; on-time completions and proactive drops do not; and
// BeginEvent resets it.
func TestMissWindow(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.DropAlpha = 2
	p := New(cfg)
	p.RecordCompletion(0, false)
	p.RecordReactiveDrop(1)
	p.BeginEvent()
	if !p.DroppingEngaged() {
		t.Fatal("a late completion and a reactive drop should reach alpha=2")
	}
	p.BeginEvent()
	if p.DroppingEngaged() {
		t.Fatal("BeginEvent did not reset the window")
	}
	p.RecordCompletion(0, false)
	p.RecordCompletion(0, true)
	p.RecordCompletion(1, true)
	p.RecordProactiveDrop(1)
	p.RecordProactiveDrop(1)
	p.BeginEvent()
	if p.DroppingEngaged() {
		t.Fatal("on-time completions or proactive drops counted as misses")
	}
}

func TestPrunerDisabledNeverPrunes(t *testing.T) {
	p := New(Disabled(3))
	p.RecordReactiveDrop(0)
	p.BeginEvent()
	if p.ShouldDropValued(0.0, 0, 1) || p.ShouldDeferValued(0.0, 0, 1) {
		t.Fatal("disabled pruner made a pruning decision")
	}
}

func TestPrunerReactiveEngagement(t *testing.T) {
	p := New(DefaultConfig(3))
	// No misses -> not engaged.
	p.BeginEvent()
	if p.DroppingEngaged() {
		t.Fatal("engaged without misses")
	}
	if p.ShouldDropValued(0.1, 0, 1) {
		t.Fatal("dropped while disengaged")
	}
	// Deferring works regardless of the toggle.
	if !p.ShouldDeferValued(0.1, 0, 1) {
		t.Fatal("defer should apply below threshold")
	}
	// A miss engages the next event.
	p.RecordReactiveDrop(0)
	p.BeginEvent()
	if !p.DroppingEngaged() {
		t.Fatal("not engaged after a miss")
	}
	if !p.ShouldDropValued(0.5, 0, 1) { // chance == threshold is pruned (<=)
		t.Fatal("should drop at threshold")
	}
	if p.ShouldDropValued(0.51, 0, 1) {
		t.Fatal("should not drop above threshold")
	}
	// Window was consumed: next event disengages again.
	p.BeginEvent()
	if p.DroppingEngaged() {
		t.Fatal("engagement leaked across events")
	}
}

func TestPrunerAlwaysMode(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.DropMode = ToggleAlways
	p := New(cfg)
	p.BeginEvent()
	if !p.DroppingEngaged() {
		t.Fatal("always mode should engage with zero misses")
	}
}

func TestEffectiveThresholdFairness(t *testing.T) {
	p := New(DefaultConfig(2))
	if got := p.EffectiveThreshold(0); got != 0.5 {
		t.Fatalf("base threshold %v", got)
	}
	// Three proactive drops: gamma = 0.15, threshold 0.35.
	for i := 0; i < 3; i++ {
		p.RecordProactiveDrop(0)
	}
	if got := p.EffectiveThreshold(0); math.Abs(got-0.35) > 1e-12 {
		t.Fatalf("adjusted threshold %v, want 0.35", got)
	}
	if got := p.EffectiveThreshold(1); got != 0.5 {
		t.Fatal("other type's threshold moved")
	}
	// Heavy suffering clamps at zero.
	for i := 0; i < 100; i++ {
		p.RecordProactiveDrop(0)
	}
	if got := p.EffectiveThreshold(0); got != 0 {
		t.Fatalf("threshold should clamp at 0, got %v", got)
	}
}

func TestFairnessProtectsSufferedType(t *testing.T) {
	p := New(DefaultConfig(2))
	p.RecordReactiveDrop(0)
	p.BeginEvent()
	chance := 0.45 // below base threshold
	if !p.ShouldDropValued(chance, 0, 1) {
		t.Fatal("precondition: chance below base threshold should drop")
	}
	// After two drops of type 0 the threshold falls to 0.40 < 0.45.
	p.RecordProactiveDrop(0)
	p.RecordProactiveDrop(0)
	p.RecordReactiveDrop(0)
	p.BeginEvent()
	if p.ShouldDropValued(chance, 0, 1) {
		t.Fatal("suffered type should be protected by fairness offset")
	}
}

func TestDeferRequiresDeferEnabled(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.DeferEnabled = false
	p := New(cfg)
	p.BeginEvent()
	if p.ShouldDeferValued(0.1, 0, 1) {
		t.Fatal("defer decision with deferring disabled")
	}
}

func TestPrunerRecordCompletionLateCountsAsMiss(t *testing.T) {
	p := New(DefaultConfig(1))
	p.RecordCompletion(0, false)
	p.BeginEvent()
	if !p.DroppingEngaged() {
		t.Fatal("late completion should engage reactive toggle")
	}
}

// Property: the effective threshold is always within [0, 1] no matter the
// sequence of drops and completions.
func TestPropEffectiveThresholdBounded(t *testing.T) {
	f := func(ops []bool) bool {
		p := New(DefaultConfig(1))
		for _, drop := range ops {
			if drop {
				p.RecordProactiveDrop(0)
			} else {
				p.RecordCompletion(0, true)
			}
			th := p.EffectiveThreshold(0)
			if th < 0 || th > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
