package scenario

import (
	"fmt"
	"math"

	"prunesim/internal/core"
	"prunesim/internal/pet"
	"prunesim/internal/sched"
	"prunesim/internal/sim"
)

// This file holds the platform/prune halves of the scenario schema as
// standalone, reusable specs: the admission-control subsystem registers
// sessions from exactly the same JSON shapes a full scenario uses, so the
// defaulting and lowering logic lives here once and both the sweep engine
// and the admission layer delegate to it.

// Bounds on the PET overrides. pet draws platform.pet.samples Gamma
// samples for every matrix cell and histograms them into spread/bin_width
// bins; session creation builds that matrix inside the HTTP handler. The
// spread grows as the Gamma shape falls, so the shape floor keeps the
// largest matrix these bounds allow (about 10.5 MiB at the sample cap, the
// bin-width floor and shape 0.1) inside the matrix cache's byte cap.
const (
	maxPETSamples  = 10000 // 20x the paper's 500
	minPETBinWidth = 0.01  // 1/50 of the paper's 0.5
	minPETShape    = 0.1   // 1/10 of the paper's 1
)

// WithDefaults returns the platform spec with the paper defaults filled
// into omitted fields (profile "standard", 8 machines, heuristic "MM").
// Scenario.Normalize delegates here.
func (p Platform) WithDefaults() Platform {
	if p.Profile == "" {
		p.Profile = ProfileStandard
	}
	if p.Machines == 0 {
		p.Machines = 8
	}
	if p.Heuristic == "" {
		p.Heuristic = "MM"
	}
	return p
}

// Validate checks a defaulted platform spec. Everything it accepts lowers
// to a PET matrix, a machine list and a heuristic without panicking, so it
// runs at both boundaries that take a spec from outside: Scenario.Normalize
// and session creation.
func (p Platform) Validate() error {
	if p.Profile != ProfileStandard && p.Profile != ProfileHomogeneous {
		return fmt.Errorf("unknown platform.profile %q (want %q or %q)", p.Profile, ProfileStandard, ProfileHomogeneous)
	}
	if p.Machines <= 0 || p.Machines > sim.MaxMachines {
		return fmt.Errorf("platform.machines must be in [1, %d], got %d", sim.MaxMachines, p.Machines)
	}
	if p.Slots < 0 {
		return fmt.Errorf("platform.slots must be non-negative, got %d", p.Slots)
	}
	if p.PCTTailEps < 0 || p.PCTTailEps >= 1 || math.IsNaN(p.PCTTailEps) {
		return fmt.Errorf("platform.pct_tail_eps %v out of range [0, 1)", p.PCTTailEps)
	}
	if o := p.PET; o != nil {
		// The shapes are checked after lowering too: a shape_hi given
		// alone, below the default shape_lo, is an invalid pair for pet.
		lowered := p.PETParams()
		if o.BinWidth < 0 || o.Samples < 0 || o.ShapeLo < 0 || o.ShapeHi < o.ShapeLo || lowered.ShapeHi < lowered.ShapeLo {
			return fmt.Errorf("invalid platform.pet overrides %+v", *o)
		}
		if o.Samples > maxPETSamples {
			return fmt.Errorf("platform.pet.samples must be at most %d, got %d", maxPETSamples, o.Samples)
		}
		if o.BinWidth != 0 && o.BinWidth < minPETBinWidth {
			return fmt.Errorf("platform.pet.bin_width must be at least %v, got %v", minPETBinWidth, o.BinWidth)
		}
		if lowered.ShapeLo < minPETShape {
			return fmt.Errorf("platform.pet.shape_lo must be at least %v, got %v", minPETShape, lowered.ShapeLo)
		}
	}
	_, imm, err := sched.ByName(p.Heuristic)
	if err != nil {
		return fmt.Errorf("unknown platform.heuristic %q (have %v)", p.Heuristic, sched.Names())
	}
	switch p.Mode {
	case "":
		// Inferred from the heuristic in Engine.compile.
	case "batch":
		if imm {
			return fmt.Errorf("heuristic %q is immediate-mode but platform.mode is \"batch\"", p.Heuristic)
		}
	case "immediate":
		if !imm {
			return fmt.Errorf("heuristic %q is batch-mode but platform.mode is \"immediate\"", p.Heuristic)
		}
	default:
		return fmt.Errorf("unknown platform.mode %q (want \"batch\" or \"immediate\")", p.Mode)
	}
	return nil
}

// PETParams lowers the spec's PET overrides onto the paper's generation
// parameters.
func (p Platform) PETParams() pet.Params {
	params := pet.DefaultParams()
	if o := p.PET; o != nil {
		if o.BinWidth > 0 {
			params.BinWidth = o.BinWidth
		}
		if o.Samples > 0 {
			params.Samples = o.Samples
		}
		if o.ShapeLo > 0 {
			params.ShapeLo = o.ShapeLo
		}
		if o.ShapeHi > 0 {
			params.ShapeHi = o.ShapeHi
		}
		if o.Seed != 0 {
			params.Seed = o.Seed
		}
	}
	return params
}

// BuildMatrix generates the PET matrix the (defaulted) platform spec
// describes. Callers that build many platforms should cache by
// (Profile, PETParams), as Engine does.
func (p Platform) BuildMatrix() (*pet.Matrix, error) {
	params := p.PETParams()
	switch p.Profile {
	case ProfileHomogeneous:
		return pet.Homogeneous(params), nil
	case ProfileStandard:
		return pet.Standard(params), nil
	default:
		return nil, fmt.Errorf("unknown platform.profile %q (want %q or %q)",
			p.Profile, ProfileStandard, ProfileHomogeneous)
	}
}

// MachineTypes returns the per-machine PET column assignment of a defaulted
// platform spec: homogeneous clusters are all type 0; standard clusters
// cycle through the matrix's machine types.
func (p Platform) MachineTypes(m *pet.Matrix) []int {
	types := make([]int, p.Machines)
	if p.Profile == ProfileHomogeneous {
		return types
	}
	for i := range types {
		types[i] = i % m.NumMachineTypes()
	}
	return types
}

// WithDefaults returns the prune spec with core.DefaultConfig's paper
// defaults filled into omitted fields (threshold 0.5, deferring on,
// reactive toggle, alpha 1, fairness 0.05). Scenario.Normalize delegates
// here.
func (p Prune) WithDefaults() Prune {
	d := core.DefaultConfig(0)
	if p.Threshold == nil {
		th := d.Threshold
		p.Threshold = &th
	}
	if p.Defer == nil {
		def := d.DeferEnabled
		p.Defer = &def
	}
	if p.Toggle == "" {
		p.Toggle = d.DropMode.String()
	}
	if p.DropAlpha == 0 {
		p.DropAlpha = d.DropAlpha
	}
	if p.Fairness == nil {
		fair := d.FairnessFactor
		p.Fairness = &fair
	}
	if p.ValueAware && p.ValueRef == 0 {
		p.ValueRef = 1
	}
	return p
}

// CoreConfig lowers a defaulted prune spec to the pruner's configuration
// for the given number of task types. A disabled spec lowers to
// core.Disabled regardless of its other fields, mirroring the simulator.
func (p Prune) CoreConfig(numTaskTypes int) (core.Config, error) {
	mode, err := p.toggleMode()
	if err != nil {
		return core.Config{}, err
	}
	if !p.Enabled {
		return core.Disabled(numTaskTypes), nil
	}
	return core.Config{
		Enabled:        true,
		Threshold:      *p.Threshold,
		DeferEnabled:   *p.Defer,
		DropMode:       mode,
		DropAlpha:      p.DropAlpha,
		FairnessFactor: *p.Fairness,
		ValueAware:     p.ValueAware,
		ValueRef:       p.ValueRef,
		NumTaskTypes:   numTaskTypes,
	}, nil
}
