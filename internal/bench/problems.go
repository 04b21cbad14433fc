// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation section (see DESIGN.md §5 for the
// experiment index). It builds the workloads, runs each solver once on the
// recording simulator engine, and replays the event stream across rank
// counts to produce the strong-scaling, s-sensitivity, preconditioner,
// accuracy and SuiteSparse comparisons.
package bench

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// Problem is one benchmark workload.
type Problem struct {
	Name   string
	A      *sparse.CSR
	B      []float64
	RelTol float64
	// Grid is set for structured problems, enabling geometric multigrid.
	Grid *grid.Grid
	// Decomp describes the domain decomposition the cost model should
	// assume (3D/2D boxes for stencil problems); nil falls back to 1D row
	// blocks computed from the matrix structure.
	Decomp *partition.GridSpec
	// PaperN/PaperNNZ document the full-scale matrix this instance stands
	// in for (equal to N/NNZ when running at paper scale).
	PaperN, PaperNNZ int
	// Op, when non-nil, is the operator the engines should apply (e.g. a
	// matrix-free stencil). A remains the assembled matrix — partitioning,
	// preconditioners and out-of-band residual checks still need the
	// structure — and Op must compute the same product bit for bit.
	Op engine.Operator
	// Perm, when non-nil, records the symmetric row reordering applied to
	// A/B relative to the source operator (perm[new] = old). Solutions in
	// the source ordering are recovered with sparse.InversePermuteVec.
	Perm []int
}

// Operator returns the operator the engines should apply: Op when set,
// otherwise the assembled matrix.
func (p Problem) Operator() engine.Operator {
	if p.Op != nil {
		return p.Op
	}
	return p.A
}

// Poisson125 builds the paper's main workload: the Poisson equation on an
// n×n×n grid with the 125-point stencil and b = A·1. The paper uses n=100
// (1M unknowns).
func Poisson125(n int) Problem {
	g := grid.NewCube(n, grid.Box125)
	a := g.Laplacian()
	return Problem{Name: fmt.Sprintf("poisson125-%dk", a.Rows/1000), A: a,
		B: grid.OnesRHS(a), RelTol: 1e-5, Grid: &g,
		Decomp: &partition.GridSpec{Nx: n, Ny: n, Nz: n, Radius: 2},
		PaperN: 1000000, PaperNNZ: 125000000}
}

// Poisson7 builds a 7-point Poisson problem (used by examples and tests).
// The operator is matrix-free (the Star7 stencil kernel, bit-identical to
// the assembled matrix); A still carries the assembled form for partitions
// and preconditioners.
func Poisson7(n int) Problem {
	g := grid.NewCube(n, grid.Star7)
	a := g.Laplacian()
	pr := Problem{Name: fmt.Sprintf("poisson7-%dk", a.Rows/1000), A: a,
		B: grid.OnesRHS(a), RelTol: 1e-5, Grid: &g,
		Decomp: &partition.GridSpec{Nx: n, Ny: n, Nz: n, Radius: 1},
		PaperN: a.Rows, PaperNNZ: a.NNZ()}
	if op, ok := g.MatrixFree(); ok {
		pr.Op = op
	}
	return pr
}

// Poisson5 builds a 2D 5-point Poisson problem on an n×n grid, the 2D
// counterpart of Poisson7 with the same matrix-free operator treatment.
func Poisson5(n int) Problem {
	g := grid.NewSquare(n, grid.Star5)
	a := g.Laplacian()
	pr := Problem{Name: fmt.Sprintf("poisson5-%dk", a.Rows/1000), A: a,
		B: grid.OnesRHS(a), RelTol: 1e-5, Grid: &g,
		Decomp: &partition.GridSpec{Nx: n, Ny: n, Nz: 1, Radius: 1},
		PaperN: a.Rows, PaperNNZ: a.NNZ()}
	if op, ok := g.MatrixFree(); ok {
		pr.Op = op
	}
	return pr
}

func fromSynth(m synth.Matrix, rtol float64, decomp *partition.GridSpec) Problem {
	return Problem{Name: m.Name, A: m.A, B: grid.OnesRHS(m.A), RelTol: rtol,
		Decomp: decomp, PaperN: m.PaperN, PaperNNZ: m.PaperNNZ}
}

// Ecology2 builds the ecology2 stand-in at the given reduction scale
// (1 = full size). The paper runs it at rtol 1e-2 (Fig. 2) because the
// s-step variants stagnate before 1e-5.
func Ecology2(scale int) Problem {
	if scale < 1 {
		scale = 1
	}
	return fromSynth(synth.Ecology2(scale), 1e-2,
		&partition.GridSpec{Nx: 1001 / scale, Ny: 999 / scale, Nz: 1, Radius: 1})
}

// Thermal2 builds the thermal2 stand-in (Table II; rtol 1e-5).
func Thermal2(scale int) Problem {
	if scale < 1 {
		scale = 1
	}
	// The stand-in's extra mesh-irregularity edges reach up to two grid
	// rows away, so a radius-2 2D decomposition bounds its halo.
	return fromSynth(synth.Thermal2(scale), 1e-5,
		&partition.GridSpec{Nx: 1109 / scale, Ny: 1108 / scale, Nz: 1, Radius: 2})
}

// Serena builds the Serena stand-in (Table II; rtol 1e-5).
func Serena(scale int) Problem {
	if scale < 1 {
		scale = 1
	}
	return fromSynth(synth.Serena(scale), 1e-5,
		&partition.GridSpec{Nx: 112 / scale, Ny: 112 / scale, Nz: 111 / scale, Radius: 2})
}

// MakePC builds a preconditioner by name for a problem. Supported names:
// none, jacobi, sor, bjacobi, chebyshev, icc, mg (structured problems
// only), gamg.
func MakePC(name string, pr Problem) (engine.Preconditioner, error) {
	a := pr.A
	switch name {
	case "none", "":
		return nil, nil
	case "jacobi":
		return precond.NewJacobi(a, 0, a.Rows), nil
	case "sor":
		return precond.NewSSOR(a, 0, a.Rows, 1.0, 1), nil
	case "bjacobi":
		return precond.NewBlockJacobi(a, 16), nil
	case "chebyshev":
		return precond.NewChebyshev(a, 4, 30), nil
	case "icc":
		return precond.NewICC(a, 8)
	case "mg":
		if pr.Grid == nil {
			return nil, fmt.Errorf("bench: %s is unstructured; mg needs a grid", pr.Name)
		}
		return precond.NewGMG(*pr.Grid, a, 600)
	case "gamg":
		return precond.NewAMG(a, precond.AMGOptions{})
	}
	return nil, fmt.Errorf("bench: unknown preconditioner %q", name)
}
