// Command petgen exports the PET (Probabilistic Execution Time) matrix: the
// table of expected execution times, or the full PMF of one cell, or a
// generated workload trial — the inputs a downstream analysis pipeline
// needs.
//
// Usage:
//
//	petgen                      # mean execution-time table (CSV to stdout)
//	petgen -cell gzip:sunfire-3800   # full PMF of one (task, machine) cell
//	petgen -workload 15000 -trial 3  # dump one workload trial as CSV
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"prunesim"
	"prunesim/internal/trace"
)

func main() {
	var (
		cell    = flag.String("cell", "", "export one cell's PMF, as taskType:machineType (names or indices)")
		homog   = flag.Bool("homogeneous", false, "use the homogeneous matrix")
		wl      = flag.Int("workload", 0, "generate a workload of this many tasks instead")
		trial   = flag.Int("trial", 0, "workload trial number")
		pattern = flag.String("pattern", "spiky", "workload pattern: spiky or constant")
	)
	flag.Parse()

	matrix := prunesim.StandardPET()
	if *homog {
		matrix = prunesim.HomogeneousPET()
	}
	switch {
	case *wl > 0:
		cfg := prunesim.DefaultWorkload(*wl)
		cfg.Trial = *trial
		cfg.Model = *pattern
		tasks, err := prunesim.GenerateWorkload(matrix, cfg)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteTasks(os.Stdout, tasks); err != nil {
			fatal(err)
		}
	case *cell != "":
		tt, mt, err := parseCell(matrix, *cell)
		if err != nil {
			fatal(err)
		}
		if err := trace.WritePETPMF(os.Stdout, matrix, tt, mt); err != nil {
			fatal(err)
		}
	default:
		if err := trace.WritePETMeans(os.Stdout, matrix); err != nil {
			fatal(err)
		}
	}
}

// parseCell resolves "gzip:sunfire-3800" or "0:6" to matrix indices.
func parseCell(m *prunesim.PETMatrix, s string) (tt, mt int, err error) {
	task, machine, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("cell must be taskType:machineType, got %q", s)
	}
	if tt, err = typeIndex("task", task, m.NumTaskTypes(), m.TaskTypeName); err != nil {
		return 0, 0, err
	}
	if mt, err = typeIndex("machine", machine, m.NumMachineTypes(), m.MachineTypeName); err != nil {
		return 0, 0, err
	}
	return tt, mt, nil
}

// typeIndex resolves a type name, or a whole decimal index in [0, n), to
// its index.
func typeIndex(kind, s string, n int, name func(int) string) (int, error) {
	for i := 0; i < n; i++ {
		if name(i) == s {
			return i, nil
		}
	}
	i, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("unknown %s type %q", kind, s)
	}
	if i < 0 || i >= n {
		return 0, fmt.Errorf("%s type %d out of range [0, %d)", kind, i, n)
	}
	return i, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "petgen:", err)
	os.Exit(1)
}
