package core

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

// String names the mode.
func (m ToggleMode) String() string {
	switch m {
	case ToggleNever:
		return "never"
	case ToggleAlways:
		return "always"
	case ToggleReactive:
		return "reactive"
	default:
		return "unknown"
	}
}
