package scenario

import (
	"strings"
	"testing"

	"prunesim/internal/core"
)

// TestFromCoreRejectsUnknownDropMode: a DropMode core.Validate rejects must
// not normalize into a runnable scenario under the default toggle.
func TestFromCoreRejectsUnknownDropMode(t *testing.T) {
	c := core.DefaultConfig(12)
	c.DropMode = 7
	if c.Validate() == nil {
		t.Fatal("core accepted DropMode 7")
	}
	s := Scenario{Workload: Workload{Tasks: 1000}, Prune: FromCore(c)}
	n, err := s.Normalize()
	if err == nil || !strings.Contains(err.Error(), "prune.toggle") {
		t.Fatalf("normalized DropMode 7 to toggle %q, err %v", n.Prune.Toggle, err)
	}
}
