package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// CSVHeader is the column layout of WriteCSV rows.
var CSVHeader = []string{"figure", "series", "x", "mean", "ci95", "metric"}

// WriteCSVHeader writes the column header once; call before the first
// WriteCSV when concatenating several figures into one file.
func WriteCSVHeader(w *csv.Writer) error {
	if err := w.Write(CSVHeader); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

// WriteCSV appends one figure's rows (and curve points, for Figure 6-style
// results) to w. Extra metrics are emitted as additional rows tagged with
// their metric name.
func WriteCSV(w *csv.Writer, fr *FigureResult) error {
	for _, p := range fr.Points {
		if err := w.Write([]string{fr.Name, "rate",
			strconv.FormatFloat(p.X, 'f', 3, 64),
			strconv.FormatFloat(p.Y, 'f', 6, 64), "0", "arrival_rate"}); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	for _, r := range fr.Rows {
		if err := w.Write([]string{fr.Name, r.Series, r.X,
			strconv.FormatFloat(r.Robustness.Mean, 'f', 3, 64),
			strconv.FormatFloat(r.Robustness.CI95, 'f', 3, 64), "robustness_pct"}); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
		for _, k := range SortedExtraKeys(r) {
			v := r.Extra[k]
			if err := w.Write([]string{fr.Name, r.Series, r.X,
				strconv.FormatFloat(v.Mean, 'f', 3, 64),
				strconv.FormatFloat(v.CI95, 'f', 3, 64), k}); err != nil {
				return fmt.Errorf("experiments: %w", err)
			}
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

// WriteMarkdown renders the figure as a GitHub-flavoured Markdown table
// (series as rows, x values as columns, "mean ± ci" cells) preceded by a
// title line — the format EXPERIMENTS.md uses.
func WriteMarkdown(w io.Writer, fr *FigureResult) error {
	if _, err := fmt.Fprintf(w, "### Figure %s — %s\n\n", fr.Name, fr.Title); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if len(fr.Points) > 0 {
		_, err := fmt.Fprintf(w, "%d curve points (export with WriteCSV).\n", len(fr.Points))
		if err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
		return nil
	}
	// Stable orderings: first appearance wins.
	var xs, series []string
	seenX := map[string]bool{}
	seenS := map[string]bool{}
	cells := map[string]string{}
	for _, r := range fr.Rows {
		if !seenX[r.X] {
			seenX[r.X] = true
			xs = append(xs, r.X)
		}
		if !seenS[r.Series] {
			seenS[r.Series] = true
			series = append(series, r.Series)
		}
		cells[r.Series+"|"+r.X] = fmt.Sprintf("%.1f ± %.1f", r.Robustness.Mean, r.Robustness.CI95)
	}
	header := "| series |"
	rule := "|---|"
	for _, x := range xs {
		header += " " + x + " |"
		rule += "---|"
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if _, err := fmt.Fprintln(w, rule); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	for _, s := range series {
		row := "| " + s + " |"
		for _, x := range xs {
			cell, ok := cells[s+"|"+x]
			if !ok {
				cell = "—"
			}
			row += " " + cell + " |"
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	if fr.Expectation != "" {
		if _, err := fmt.Fprintf(w, "\nPaper shape: %s\n", fr.Expectation); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	return nil
}

// SortedExtraKeys returns a row's extra-metric names in the sorted order
// every writer prints them in.
func SortedExtraKeys(r Row) []string {
	keys := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
