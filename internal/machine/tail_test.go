package machine

import (
	"math"
	"testing"

	"prunesim/internal/pmf"
	"prunesim/internal/task"
)

func TestSetTailEpsValidation(t *testing.T) {
	m := newTestMachine()
	for _, eps := range []float64{-0.1, 1, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("eps %v: expected panic", eps)
				}
			}()
			m.SetTailEps(eps)
		}()
	}
	m.SetTailEps(0.25)
	if m.TailEps() != 0.25 {
		t.Fatalf("TailEps = %v, want 0.25", m.TailEps())
	}
}

// TestTailEpsIncrementalMatchesFullRebuild: with compression on, the
// incrementally maintained chain must still be bitwise-identical to a full
// reconvolution from the same anchor — the invariant that makes memoized
// and rebuilt PCTs interchangeable.
func TestTailEpsIncrementalMatchesFullRebuild(t *testing.T) {
	lookup := randomPET()
	for _, eps := range []float64{1e-9, 1e-4, 0.02} {
		m := New(0, 0, lookup, 1)
		m.SetScratch(&pmf.Scratch{})
		m.SetTailEps(eps)
		now := 0.0
		// Exercise every chain site: append convolutions (Enqueue), the
		// from-anchor rebuild (StartNext invalidation), and the mid-queue
		// repair (DropPending).
		for id := 0; id < 12; id++ {
			m.Enqueue(task.New(id, id%3, now, now+8+float64(id%5)), now)
		}
		if m.StartNext(now) == nil {
			t.Fatal("StartNext returned nil")
		}
		now += 1.25
		m.DropPending(now, func(e Entry) bool { return e.Task.ID%4 == 2 }, nil)
		m.RefreshPCTs(now) // anchor the chain exactly at `now`
		pend := m.Pending()
		saved := make([]*pmf.PMF, len(pend))
		for i := range pend {
			saved[i] = pend[i].PCT.Clone()
		}
		// Force a from-scratch rebuild from the identical anchor.
		m.chainKey = anchorKey{}
		m.validTo = 0
		m.RefreshPCTs(now)
		rebuilt := m.Pending()
		if len(rebuilt) != len(saved) {
			t.Fatalf("eps %v: pending %d vs %d", eps, len(rebuilt), len(saved))
		}
		for i := range rebuilt {
			if err := pmfBitwise(rebuilt[i].PCT, saved[i]); err != nil {
				t.Fatalf("eps %v entry %d: incremental vs rebuilt: %v", eps, i, err)
			}
		}
	}
}

// TestTailEpsConservativeAndBounded: compressed chance estimates never
// exceed the exact ones, degrade by at most depth*eps, and the compressed
// supports never grow past the exact supports.
func TestTailEpsConservativeAndBounded(t *testing.T) {
	lookup := randomPET()
	const eps = 0.01
	exact := New(0, 0, lookup, 1)
	comp := New(1, 0, lookup, 1)
	comp.SetTailEps(eps)
	now := 0.0
	const depth = 16
	for id := 0; id < depth; id++ {
		a := task.New(id, id%3, now, now+20)
		b := task.New(id, id%3, now, now+20)
		exact.Enqueue(a, now)
		comp.Enqueue(b, now)
	}
	pe, pc := exact.Pending(), comp.Pending()
	for i := range pe {
		if pc[i].PCT.NumBins() > pe[i].PCT.NumBins() {
			t.Fatalf("entry %d: compressed support %d > exact %d", i, pc[i].PCT.NumBins(), pe[i].PCT.NumBins())
		}
	}
	for _, deadline := range []float64{2, 5, 10, 20, 40} {
		ce := exact.ChanceIfEnqueued(1, deadline, now)
		cc := comp.ChanceIfEnqueued(1, deadline, now)
		if cc > ce+1e-12 {
			t.Fatalf("deadline %v: compressed chance %v above exact %v", deadline, cc, ce)
		}
		// Each of the depth+1 chain convolutions folds at most eps.
		if ce-cc > float64(depth+1)*eps+1e-12 {
			t.Fatalf("deadline %v: compressed chance dropped by %v, above bound %v", deadline, ce-cc, float64(depth+1)*eps)
		}
	}
}

// TestTailEpsZeroIsExact: eps 0 must leave every PCT bitwise-identical to a
// machine that never heard of compression.
func TestTailEpsZeroIsExact(t *testing.T) {
	lookup := randomPET()
	plain := New(0, 0, lookup, 1)
	zero := New(1, 0, lookup, 1)
	zero.SetTailEps(0.5)
	zero.SetTailEps(0)
	now := 0.0
	for id := 0; id < 6; id++ {
		plain.Enqueue(task.New(id, id%3, now, now+9), now)
		zero.Enqueue(task.New(id, id%3, now, now+9), now)
	}
	pp, pz := plain.Pending(), zero.Pending()
	for i := range pp {
		if err := pmfBitwise(pp[i].PCT, pz[i].PCT); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
}
