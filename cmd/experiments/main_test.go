package main

import (
	"bytes"
	"strings"
	"testing"

	"prunesim"
	"prunesim/internal/stats"
)

// TestPrintFigureSortsExtras: extra metrics print in sorted order on every
// render, not in map iteration order.
func TestPrintFigureSortsExtras(t *testing.T) {
	fr := &prunesim.FigureResult{Name: "x", Rows: []prunesim.FigureRow{{
		Series: "MM", X: "15k",
		Extra: map[string]stats.Summary{
			"wasted_energy_pct":  {Mean: 1},
			"joules_per_on_time": {Mean: 2},
		},
	}}}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		printFigure(&buf, fr, 0)
		out := buf.String()
		a, b := strings.Index(out, "joules_per_on_time="), strings.Index(out, "wasted_energy_pct=")
		if a < 0 || b < 0 || a > b {
			t.Fatalf("render %d: extras missing or out of order:\n%s", i, out)
		}
	}
}
