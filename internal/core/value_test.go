package core

import "testing"

func valueAwarePruner() *Pruner {
	cfg := DefaultConfig(2)
	cfg.ValueAware = true
	cfg.FairnessFactor = 0 // isolate the value scaling
	return New(cfg)
}

func TestValuedThresholdScaling(t *testing.T) {
	p := valueAwarePruner()
	p.RecordReactiveDrop(0)
	p.BeginEvent()
	// Base threshold 0.5, ValueRef 1. A value-2 task's factor is
	// clamp(1/2, 0.5, 1.5) = 0.5 -> threshold 0.25; a value-0.5 task's is
	// clamp(2, .5, 1.5) = 1.5 -> threshold 0.75.
	if !p.ShouldDropValued(0.25, 0, 2) {
		t.Error("value-2 task at chance 0.25 should drop (threshold 0.25)")
	}
	if p.ShouldDropValued(0.30, 0, 2) {
		t.Error("value-2 task at chance 0.30 should survive")
	}
	if !p.ShouldDropValued(0.7, 0, 0.5) {
		t.Error("value-0.5 task at chance 0.7 should drop (threshold 0.75)")
	}
	if p.ShouldDropValued(0.8, 0, 0.5) {
		t.Error("value-0.5 task at chance 0.8 should survive (bounded scaling)")
	}
	// The factor bound: even a value-100 task is pruned below 0.25.
	if !p.ShouldDropValued(0.2, 0, 100) {
		t.Error("hopeless high-value task must still be pruned (factor floor)")
	}
}

func TestValuedDeferScaling(t *testing.T) {
	p := valueAwarePruner()
	if p.ShouldDeferValued(0.4, 0, 2) {
		t.Error("value-2 task at chance 0.4 should not defer (threshold 0.25)")
	}
	if !p.ShouldDeferValued(0.4, 0, 1) {
		t.Error("unit-value task at chance 0.4 should defer")
	}
}

func TestValueRefCentersScaling(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.ValueAware = true
	cfg.ValueRef = 3
	cfg.FairnessFactor = 0
	p := New(cfg)
	// A task at the reference value keeps the base threshold exactly.
	if p.ShouldDeferValued(0.51, 0, 3) || !p.ShouldDeferValued(0.5, 0, 3) {
		t.Error("reference-value task should use the base threshold")
	}
	// value 5: factor 3/5 = 0.6 -> threshold 0.30.
	if p.ShouldDeferValued(0.31, 0, 5) || !p.ShouldDeferValued(0.30, 0, 5) {
		t.Error("value-5 threshold should be 0.30")
	}
	// value 1: factor 3 clamps to 1.5 -> threshold 0.75.
	if p.ShouldDeferValued(0.76, 0, 1) || !p.ShouldDeferValued(0.75, 0, 1) {
		t.Error("value-1 threshold should be 0.75")
	}
}

func TestValueAwareDisabledIsNoop(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.FairnessFactor = 0
	p := New(cfg) // ValueAware false
	p.RecordReactiveDrop(0)
	p.BeginEvent()
	for _, v := range []float64{0.5, 1, 2, 10} {
		if p.ShouldDropValued(0.4, 0, v) != p.ShouldDropValued(0.4, 0, 1) {
			t.Fatalf("value %v changed decision with ValueAware off", v)
		}
	}
}

func TestValuedNonPositiveValueTreatedAsUnit(t *testing.T) {
	p := valueAwarePruner()
	p.RecordReactiveDrop(0)
	p.BeginEvent()
	if p.ShouldDropValued(0.4, 0, 0) != p.ShouldDropValued(0.4, 0, 1) {
		t.Fatal("value 0 should behave like value 1")
	}
	if p.ShouldDropValued(0.4, 0, -3) != p.ShouldDropValued(0.4, 0, 1) {
		t.Fatal("negative value should behave like value 1")
	}
}

func TestValuedThresholdComposesWithFairness(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.ValueAware = true
	p := New(cfg)
	// Two proactive drops: gamma = 0.10, base effective threshold 0.40.
	p.RecordProactiveDrop(0)
	p.RecordProactiveDrop(0)
	p.RecordReactiveDrop(0)
	p.BeginEvent()
	// Value 2 halves it to 0.20.
	if p.ShouldDropValued(0.25, 0, 2) {
		t.Error("chance 0.25 above composed threshold 0.20")
	}
	if !p.ShouldDropValued(0.19, 0, 2) {
		t.Error("chance 0.19 below composed threshold 0.20")
	}
}
