package core

import "fmt"

// ToggleMode selects the dropping-engagement policy of the Toggle module
// (Section IV-C and the Figure 7 experiment's three configurations).
type ToggleMode uint8

const (
	// ToggleNever never engages proactive dropping ("no Toggle, no
	// dropping"). Deferring, if enabled, still applies.
	ToggleNever ToggleMode = iota
	// ToggleAlways engages proactive dropping at every mapping event
	// ("no Toggle, always dropping").
	ToggleAlways
	// ToggleReactive engages dropping only when the system shows
	// oversubscription: at least Alpha tasks missed their deadlines since
	// the previous mapping event ("reactive Toggle").
	ToggleReactive
)

// toggleNames spells each mode; String and ParseToggleMode both read it.
var toggleNames = [...]string{ToggleNever: "never", ToggleAlways: "always", ToggleReactive: "reactive"}

// String names the mode, or returns "unknown" for a value out of range.
func (m ToggleMode) String() string {
	if int(m) < len(toggleNames) {
		return toggleNames[m]
	}
	return "unknown"
}

// ParseToggleMode resolves a mode name as String spells it.
func ParseToggleMode(name string) (ToggleMode, error) {
	for m, n := range toggleNames {
		if n == name {
			return ToggleMode(m), nil
		}
	}
	return 0, fmt.Errorf("unknown toggle %q (want one of %q)", name, toggleNames)
}
