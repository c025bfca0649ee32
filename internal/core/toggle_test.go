package core

import "testing"

// TestParseToggleModeRoundTrip: every mode parses back from its String,
// and names String never produces are rejected.
func TestParseToggleModeRoundTrip(t *testing.T) {
	for _, m := range []ToggleMode{ToggleNever, ToggleAlways, ToggleReactive} {
		got, err := ParseToggleMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseToggleMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, name := range []string{"", "unknown", "Reactive", "sometimes"} {
		if _, err := ParseToggleMode(name); err == nil {
			t.Errorf("ParseToggleMode(%q) accepted", name)
		}
	}
}
