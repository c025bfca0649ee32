package machine

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// versionCheck returns a stepHook that pins the Version contract batch
// mapping relies on to keep a machine's read across Map calls. While
// Version has not moved since the last read, PendingCount and Down are
// unchanged, and ExpectedReady answers as it did, at any now if the queue
// is non-empty and at the same now if it is empty. Every read, repeated,
// must also match the full-recompute reference bitwise.
func versionCheck() stepHook {
	var last struct {
		ok        bool
		ver       uint64
		pending   int
		down      bool
		ready, at float64
	}
	return func(inc *Machine, ref *refMachine, now float64) error {
		if last.ok && inc.Version() == last.ver {
			if inc.PendingCount() != last.pending || inc.Down() != last.down {
				return fmt.Errorf("version %d unchanged but pending %d -> %d, down %v -> %v",
					last.ver, last.pending, inc.PendingCount(), last.down, inc.Down())
			}
			if r := inc.ExpectedReady(now); (last.pending > 0 || now == last.at) && math.Float64bits(r) != math.Float64bits(last.ready) {
				return fmt.Errorf("version %d unchanged but ExpectedReady %v (at %v) -> %v (at %v)",
					last.ver, last.ready, last.at, r, now)
			}
		}
		r := inc.ExpectedReady(now)
		if again := inc.ExpectedReady(now); math.Float64bits(again) != math.Float64bits(r) {
			return fmt.Errorf("repeated ExpectedReady %v, first read %v", again, r)
		}
		if want := ref.expectedReady(now); math.Float64bits(r) != math.Float64bits(want) {
			return fmt.Errorf("ExpectedReady %v, reference %v", r, want)
		}
		last.ok, last.ver, last.pending, last.down, last.ready, last.at =
			true, inc.Version(), inc.PendingCount(), inc.Down(), r, now
		return nil
	}
}

// TestVersionContract runs random operation sequences with versionCheck
// after every step.
func TestVersionContract(t *testing.T) {
	f := func(sc equivScenario) bool {
		if err := runOpsWith(sc.ops, sc.args, versionCheck()); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}
