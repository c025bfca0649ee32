// Package pet builds and serves the Probabilistic Execution Time (PET)
// matrix: one discrete PMF per (task type, machine type) pair describing the
// stochastic execution time of that task type on that machine type.
//
// The paper built its PET matrix by running the twelve SPECint benchmarks on
// eight physical machines and fitting per-cell Gamma distributions (shape
// drawn from [1, 20]), then histogramming 500 samples per cell. The raw
// means are not published, so this package ships a fixed, documented,
// inconsistently heterogeneous 12x8 mean matrix (see Standard) and applies
// exactly the paper's generation recipe on top of it. The pruning mechanism
// consumes only the resulting PMFs, so any inconsistently heterogeneous
// matrix exercises the same code paths.
package pet

import (
	"fmt"

	"prunesim/internal/pmf"
	"prunesim/internal/randx"
)

// TaskTypeNames are the twelve SPECint 2000 benchmarks the paper used as
// task types.
var TaskTypeNames = []string{
	"gzip", "vpr", "gcc", "mcf", "crafty", "parser",
	"eon", "perlbmk", "gap", "vortex", "bzip2", "twolf",
}

// MachineTypeNames are the eight machines from the paper's testbed
// (footnote 1 of Section V-B).
var MachineTypeNames = []string{
	"dell-precision-380", "apple-imac-core-duo", "apple-xserve",
	"ibm-x3455-opteron", "shuttle-sn25p-fx60", "ibm-p570-4.7ghz",
	"sunfire-3800", "ibm-hs21xm",
}

// standardMeans is the shipped 12x8 mean execution-time matrix (time units).
// It is inconsistently heterogeneous: every machine is the affinity machine
// (column minimum) for at least one task type, and machine orderings invert
// across task types — e.g. the SunFire column is worst for gzip but best
// for parser and twolf, and the memory-bound mcf row inverts the Core Duo
// machines' advantage. This distributed task-machine affinity is what makes
// affinity-aware heuristics (MET, KPB) meaningful on the system.
var standardMeans = [][]float64{
	//  dell  imac  xserv x3455 sn25p p570  sunfr hs21
	{1.6, 2.2, 2.1, 1.3, 1.4, 0.9, 2.9, 1.2}, // gzip    (best: p570)
	{1.1, 3.1, 3.0, 1.8, 2.1, 1.0, 4.2, 1.7}, // vpr     (best: p570, dell close second)
	{2.9, 3.8, 3.7, 2.2, 2.6, 1.6, 5.1, 1.4}, // gcc     (best: hs21)
	{3.6, 6.4, 6.1, 1.3, 3.2, 1.4, 4.6, 2.6}, // mcf     (memory-bound; best: x3455)
	{2.0, 2.6, 2.5, 1.5, 1.0, 1.1, 3.5, 1.4}, // crafty  (branchy; best: sn25p)
	{2.7, 3.6, 3.5, 2.1, 2.4, 1.5, 1.2, 2.0}, // parser  (best: sunfire)
	{1.4, 0.7, 1.7, 1.1, 1.2, 0.8, 1.3, 1.0}, // eon     (best: imac)
	{2.2, 2.9, 2.8, 1.7, 1.9, 1.2, 3.8, 1.6}, // perlbmk (best: p570)
	{1.8, 2.4, 2.3, 1.4, 1.6, 1.0, 3.2, 2.6}, // gap     (best: p570)
	{3.1, 4.1, 3.9, 2.4, 2.7, 1.7, 5.4, 1.5}, // vortex  (best: hs21)
	{1.9, 2.5, 1.3, 1.5, 1.7, 2.2, 3.4, 1.4}, // bzip2   (poor p570 affinity; best: xserve)
	{3.2, 4.3, 4.1, 2.5, 2.9, 1.8, 1.5, 2.3}, // twolf   (best: sunfire)
}

// Params controls PET PMF generation. The JSON tags are the scenario
// schema's platform.pet block.
type Params struct {
	// BinWidth is the PMF bin width in time units.
	BinWidth float64 `json:"bin_width,omitempty"`
	// Samples is the number of Gamma draws histogrammed per cell (paper: 500).
	Samples int `json:"samples,omitempty"`
	// ShapeLo and ShapeHi bound the uniform Gamma-shape draw (paper: [1, 20]).
	// Low shapes mean heavy-tailed execution times.
	ShapeLo float64 `json:"shape_lo,omitempty"`
	ShapeHi float64 `json:"shape_hi,omitempty"`
	// Seed makes the matrix reproducible; the same seed always yields the
	// same PMFs.
	Seed uint64 `json:"seed,omitempty"`
}

// DefaultParams returns the paper's generation parameters.
func DefaultParams() Params {
	return Params{BinWidth: 0.5, Samples: 500, ShapeLo: 1, ShapeHi: 20, Seed: 0x9e2019}
}

// Matrix is an immutable PET matrix plus its scalar summaries. Construct it
// with NewMatrix, Standard, or Homogeneous.
type Matrix struct {
	taskNames    []string
	machineNames []string
	means        [][]float64 // configured Gamma means (ground truth)
	pmfs         [][]*pmf.PMF
	pmfMeans     [][]float64 // means of the histogrammed PMFs (what heuristics see)
	taskAvg      []float64   // per-type mean over machine types (deadline Eq. 4 avg_i)
	avgAll       float64     // mean of taskAvg (deadline Eq. 4 avg_all)
	binWidth     float64
}

// NewMatrix generates a PET matrix for the given mean execution times. means
// is indexed [taskType][machineType] and must be rectangular with positive
// entries. Name slices must match the matrix dimensions.
func NewMatrix(means [][]float64, taskNames, machineNames []string, p Params) *Matrix {
	if len(means) == 0 || len(means[0]) == 0 {
		panic("pet: means matrix must be non-empty")
	}
	if len(taskNames) != len(means) {
		panic(fmt.Sprintf("pet: %d task names for %d rows", len(taskNames), len(means)))
	}
	if len(machineNames) != len(means[0]) {
		panic(fmt.Sprintf("pet: %d machine names for %d columns", len(machineNames), len(means[0])))
	}
	if p.BinWidth <= 0 || p.Samples <= 0 || p.ShapeLo <= 0 || p.ShapeHi < p.ShapeLo {
		panic("pet: invalid Params")
	}
	nt, nm := len(means), len(means[0])
	m := &Matrix{
		taskNames:    append([]string(nil), taskNames...),
		machineNames: append([]string(nil), machineNames...),
		means:        make([][]float64, nt),
		pmfs:         make([][]*pmf.PMF, nt),
		pmfMeans:     make([][]float64, nt),
		taskAvg:      make([]float64, nt),
		binWidth:     p.BinWidth,
	}
	for t := 0; t < nt; t++ {
		if len(means[t]) != nm {
			panic("pet: means matrix must be rectangular")
		}
		m.means[t] = append([]float64(nil), means[t]...)
		m.pmfs[t] = make([]*pmf.PMF, nm)
		m.pmfMeans[t] = make([]float64, nm)
		var rowSum float64
		for j := 0; j < nm; j++ {
			mean := means[t][j]
			if mean <= 0 {
				panic("pet: execution-time means must be positive")
			}
			rng := randx.Split(p.Seed, uint64(t*nm+j))
			shape := rng.Uniform(p.ShapeLo, p.ShapeHi)
			samples := make([]float64, p.Samples)
			for s := range samples {
				samples[s] = rng.GammaMeanShape(mean, shape)
			}
			cell := pmf.FromSamples(samples, p.BinWidth)
			m.pmfs[t][j] = cell
			m.pmfMeans[t][j] = cell.Mean()
			rowSum += cell.Mean()
		}
		m.taskAvg[t] = rowSum / float64(nm)
		m.avgAll += m.taskAvg[t]
	}
	m.avgAll /= float64(nt)
	return m
}

// Standard returns the shipped 12-benchmark x 8-machine inconsistently
// heterogeneous PET matrix generated with the paper's recipe.
func Standard(p Params) *Matrix {
	return NewMatrix(standardMeans, TaskTypeNames, MachineTypeNames, p)
}

// Homogeneous returns a single-machine-type PET matrix whose per-type means
// are the row averages of the standard matrix. Used for the paper's
// homogeneous-system experiments (Section V-F): all machines are identical,
// but task types still differ from one another.
func Homogeneous(p Params) *Matrix {
	means := make([][]float64, len(standardMeans))
	for t, row := range standardMeans {
		var s float64
		for _, v := range row {
			s += v
		}
		means[t] = []float64{s / float64(len(row))}
	}
	return NewMatrix(means, TaskTypeNames, []string{"uniform-node"}, p)
}

// NumTaskTypes returns the number of task types (rows).
func (m *Matrix) NumTaskTypes() int { return len(m.means) }

// NumMachineTypes returns the number of machine types (columns).
func (m *Matrix) NumMachineTypes() int { return len(m.means[0]) }

// BinWidth returns the PMF bin width.
func (m *Matrix) BinWidth() float64 { return m.binWidth }

// TaskTypeName returns the name of task type t.
func (m *Matrix) TaskTypeName(t int) string { return m.taskNames[t] }

// MachineTypeName returns the name of machine type j.
func (m *Matrix) MachineTypeName(j int) string { return m.machineNames[j] }

// PET returns the execution-time PMF of task type t on machine type j.
func (m *Matrix) PET(t, j int) *pmf.PMF { return m.pmfs[t][j] }

// MeanExec returns the mean of the PET PMF for (t, j) — the expected
// execution time the mapping heuristics reason with.
func (m *Matrix) MeanExec(t, j int) float64 { return m.pmfMeans[t][j] }

// ConfiguredMean returns the ground-truth Gamma mean for (t, j) before
// histogram discretization.
func (m *Matrix) ConfiguredMean(t, j int) float64 { return m.means[t][j] }

// TaskAvg returns the mean execution time of task type t averaged over all
// machine types (avg_i in the deadline formula, Eq. 4).
func (m *Matrix) TaskAvg(t int) float64 { return m.taskAvg[t] }

// AvgAll returns the grand mean execution time over all task types
// (avg_all in the deadline formula, Eq. 4).
func (m *Matrix) AvgAll() float64 { return m.avgAll }

// RetainedBytes estimates the heap the matrix holds: per cell, the PMF's
// bins plus a fixed overhead for its header, the pointer to it and the
// cell's two means. It ignores the name slices and row headers, which do
// not grow with the generation parameters.
func (m *Matrix) RetainedBytes() int64 {
	const cellOverhead = 96
	var n int64
	for _, row := range m.pmfs {
		for _, d := range row {
			n += cellOverhead + 8*int64(d.NumBins())
		}
	}
	return n
}
