// Package workload owns the three decisions every harness shares on the way
// from (problem, method, pc, ranks) to a running solve, so that the service,
// the audit, the paper's experiments and every CLI assemble a solve the same
// way and differ only in what they measure:
//
//   - the catalogue: Problem, the six constructors, ProblemByName and the
//     per-problem default options (this file);
//   - one preconditioner table: PC for whole-matrix preconditioners, built on
//     the same rank-local entries RankPC hands the comm runtime (pc.go);
//   - one SPMD driver on top of the raw internal/comm API (spmd.go), plus the
//     out-of-band true-residual sampler that rides a solve's Observe hook
//     (drift.go).
//
// The package sits below serve, audit, bench and cmd/*; it imports no
// harness (DESIGN.md §4).
package workload

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// Problem is one workload: a linear system plus what the harnesses need to
// know about it.
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
// (1M unknowns). The operator is matrix-free (the Box125 stencil kernel,
// bit-identical to the assembled matrix), so a product reads no matrix; A
// still carries the assembled form for partitions, preconditioners and the
// simulator's cost model.
func Poisson125(n int) Problem {
	return matrixFree("poisson125", grid.NewCube(n, grid.Box125),
		partition.GridSpec{Nx: n, Ny: n, Nz: n, Radius: 2})
}

// Poisson7 builds a 7-point Poisson problem (used by examples and tests).
// The operator is matrix-free (the Star7 stencil kernel, bit-identical to
// the assembled matrix); A still carries the assembled form for partitions
// and preconditioners.
func Poisson7(n int) Problem {
	return matrixFree("poisson7", grid.NewCube(n, grid.Star7),
		partition.GridSpec{Nx: n, Ny: n, Nz: n, Radius: 1})
}

// Poisson5 builds a 2D 5-point Poisson problem on an n×n grid, the 2D
// counterpart of Poisson7 with the same matrix-free operator treatment.
func Poisson5(n int) Problem {
	return matrixFree("poisson5", grid.NewSquare(n, grid.Star5),
		partition.GridSpec{Nx: n, Ny: n, Nz: 1, Radius: 1})
}

func matrixFree(name string, g grid.Grid, decomp partition.GridSpec) Problem {
	a := g.Laplacian()
	pr := Problem{Name: fmt.Sprintf("%s-%dk", name, a.Rows/1000), A: a,
		B: grid.OnesRHS(a), RelTol: 1e-5, Grid: &g, Decomp: &decomp}
	if op, ok := g.MatrixFree(); ok {
		pr.Op = op
	}
	return pr
}

func fromSynth(m synth.Matrix, rtol float64, decomp *partition.GridSpec) Problem {
	return Problem{Name: m.Name, A: m.A, B: grid.OnesRHS(m.A), RelTol: rtol, Decomp: decomp}
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

// Names lists the built-in problems ProblemByName resolves.
var Names = []string{"poisson125", "poisson7", "poisson5", "ecology2", "thermal2", "serena"}

// ProblemByName builds a named workload. n is the grid dimension for the
// Poisson problems; scale the reduction factor for the SuiteSparse
// stand-ins (1 = full paper size).
func ProblemByName(name string, n, scale int) (Problem, error) {
	switch name {
	case "poisson125":
		return Poisson125(n), nil
	case "poisson7":
		return Poisson7(n), nil
	case "poisson5":
		return Poisson5(n), nil
	case "ecology2":
		return Ecology2(scale), nil
	case "thermal2":
		return Thermal2(scale), nil
	case "serena":
		return Serena(scale), nil
	}
	return Problem{}, fmt.Errorf("workload: unknown problem %q (want %s)", name, strings.Join(Names, ", "))
}

// FromMatrix wraps an assembled matrix read from outside the catalogue (a
// MatrixMarket file or upload) as a problem: b = A·1, rtol 1e-5.
func FromMatrix(name string, a *sparse.CSR) Problem {
	return Problem{Name: name, A: a, B: grid.OnesRHS(a), RelTol: 1e-5}
}

// DefaultOptions returns the paper's solve options for a problem.
func DefaultOptions(pr Problem) krylov.Options {
	opt := krylov.Defaults()
	opt.RelTol = pr.RelTol
	return opt
}

// Reordered returns the problem under the symmetric row reordering perm
// (perm[new] = old): A and B move together, Perm records the reordering, and
// the matrix-free operator — valid only in the source ordering — is dropped.
func (p Problem) Reordered(perm []int) Problem {
	p.A = sparse.PermuteSym(p.A, perm)
	b := make([]float64, len(p.B))
	sparse.PermuteVec(b, p.B, perm)
	p.B, p.Perm, p.Op = b, perm, nil
	return p
}

// Unpermute maps an iterate of the (possibly reordered) system back to the
// source ordering; x itself when the problem was never reordered.
func (p Problem) Unpermute(x []float64) []float64 {
	if p.Perm == nil || x == nil {
		return x
	}
	out := make([]float64, len(x))
	sparse.InversePermuteVec(out, x, p.Perm)
	return out
}
