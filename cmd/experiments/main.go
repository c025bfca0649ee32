// Command experiments regenerates the paper's evaluation figures and prints
// the data series in paper-style rows (mean robustness ± 95% CI over N
// trials). Scenario files run through cmd/hcsim --scenario.
//
// Usage:
//
//	experiments -fig all                 # every figure at paper scale (slow)
//	experiments -fig 9b -trials 10       # one figure, fewer trials
//	experiments -fig 8 -scale 0.2        # 20%-size workloads, same shape
//	experiments -fig 6 -csv fig6.csv     # dump curve data as CSV
//	experiments -fig 9b -md fig9b.md     # Markdown table (EXPERIMENTS.md style)
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"prunesim"
	"prunesim/internal/cli"
	"prunesim/internal/experiments"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate ("+strings.Join(prunesim.FigureNames(), ", ")+" or 'all')")
		trials   = flag.Int("trials", 30, "workload trials per configuration point")
		scale    = flag.Float64("scale", 1.0, "workload scale factor (1 = paper size)")
		seed     = flag.Uint64("seed", 0x10bd, "base random seed")
		parallel = flag.Int("parallelism", 0, "max concurrent trials (0 = GOMAXPROCS)")
		csvPath  = flag.String("csv", "", "also write rows/points to this CSV file")
		mdPath   = flag.String("md", "", "also write Markdown tables to this file")
	)
	flag.Parse()

	opt := prunesim.FigureOptions{Trials: *trials, Scale: *scale, Seed: *seed, Parallelism: *parallel}
	names := []string{*fig}
	if *fig == "all" {
		names = prunesim.FigureNames()
	}
	var csvW *csv.Writer
	if *csvPath != "" {
		// "-" streams to stdout; parent directories are created on demand.
		f, err := cli.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		csvW = csv.NewWriter(f)
		defer csvW.Flush()
		if err := experiments.WriteCSVHeader(csvW); err != nil {
			fatal(err)
		}
	}
	var mdW io.Writer
	if *mdPath != "" {
		f, err := cli.Create(*mdPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		mdW = f
	}
	for _, name := range names {
		start := time.Now()
		fr, err := prunesim.RunFigure(name, opt)
		if err != nil {
			fatal(err)
		}
		printFigure(os.Stdout, fr, time.Since(start))
		if csvW != nil {
			if err := experiments.WriteCSV(csvW, fr); err != nil {
				fatal(err)
			}
		}
		if mdW != nil {
			if err := experiments.WriteMarkdown(mdW, fr); err != nil {
				fatal(err)
			}
			fmt.Fprintln(mdW)
		}
	}
}

// printFigure writes fr to w as a paper-like table, extra metrics in
// sorted order.
func printFigure(w io.Writer, fr *prunesim.FigureResult, elapsed time.Duration) {
	fmt.Fprintf(w, "\n=== Figure %s: %s (%s) ===\n", fr.Name, fr.Title, elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "paper shape: %s\n", fr.Expectation)
	if len(fr.Points) > 0 {
		fmt.Fprintf(w, "%d curve points (use -csv to export); preview:\n", len(fr.Points))
		step := len(fr.Points) / 10
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(fr.Points); i += step {
			p := fr.Points[i]
			fmt.Fprintf(w, "  t=%8.1f  rate=%6.3f\n", p.X, p.Y)
		}
		return
	}
	// Group rows by X for a paper-like table: one block per x value.
	seenX := []string{}
	byX := map[string][]prunesim.FigureRow{}
	for _, r := range fr.Rows {
		if _, ok := byX[r.X]; !ok {
			seenX = append(seenX, r.X)
		}
		byX[r.X] = append(byX[r.X], r)
	}
	for _, x := range seenX {
		fmt.Fprintf(w, "  %s:\n", x)
		for _, r := range byX[x] {
			fmt.Fprintf(w, "    %-10s %6.2f%% ± %5.2f", r.Series, r.Robustness.Mean, r.Robustness.CI95)
			for _, k := range experiments.SortedExtraKeys(r) {
				v := r.Extra[k]
				fmt.Fprintf(w, "   %s=%.2f±%.2f", k, v.Mean, v.CI95)
			}
			fmt.Fprintln(w)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
