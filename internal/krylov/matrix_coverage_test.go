package krylov

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/synth"
	"repro/internal/vec"
)

// TestConvergenceMatrix sweeps the full cross product of problems,
// preconditioners and methods and requires every combination either to
// converge to the requested tolerance or to stop through a guard — never to
// hang, error out, or return success with a bad solution.
func TestConvergenceMatrix(t *testing.T) {
	type problemCase struct {
		name   string
		build  func() *sparse.CSR
		grid   *grid.Grid
		easy   bool // tight tolerance expected to be reachable by all methods
		reltol float64
	}
	g2 := grid.NewSquare(16, grid.Star5)
	g3 := grid.NewCube(8, grid.Box27)
	g125 := grid.NewCube(7, grid.Box125)
	problems := []problemCase{
		{"poisson2d", func() *sparse.CSR { return g2.Laplacian() }, &g2, true, 1e-8},
		{"poisson3d-27pt", func() *sparse.CSR { return g3.Laplacian() }, &g3, true, 1e-8},
		{"poisson3d-125pt", func() *sparse.CSR { return g125.Laplacian() }, &g125, true, 1e-8},
		{"ecology2-like", func() *sparse.CSR { return synth.Ecology2(32).A }, nil, false, 1e-4},
		{"serena-like", func() *sparse.CSR { return synth.Serena(12).A }, nil, true, 1e-7},
	}

	pcs := []struct {
		name  string
		build func(a *sparse.CSR, pc problemCase) (engine.Preconditioner, error)
	}{
		{"jacobi", func(a *sparse.CSR, _ problemCase) (engine.Preconditioner, error) {
			return precond.NewJacobi(a, 0, a.Rows), nil
		}},
		{"ssor", func(a *sparse.CSR, _ problemCase) (engine.Preconditioner, error) {
			return precond.NewSSOR(a, 0, a.Rows, 1.0, 1), nil
		}},
		{"icc", func(a *sparse.CSR, _ problemCase) (engine.Preconditioner, error) {
			return precond.NewICC(a, 8)
		}},
		{"gamg", func(a *sparse.CSR, _ problemCase) (engine.Preconditioner, error) {
			return precond.NewAMG(a, precond.AMGOptions{})
		}},
	}

	for _, pc := range problems {
		a := pc.build()
		ones := make([]float64, a.Rows)
		for i := range ones {
			ones[i] = 1
		}
		b := make([]float64, a.Rows)
		a.MulVec(b, ones)
		bnorm := vec.Norm2(b)

		for _, pcb := range pcs {
			for _, m := range Methods {
				if m.Name == "ladder" {
					continue // reports exhaustion as a typed error, not a guarded stop
				}
				t.Run(fmt.Sprintf("%s/%s/%s", pc.name, pcb.name, m.Name), func(t *testing.T) {
					pcInst, err := pcb.build(a, pc)
					if err != nil {
						t.Fatalf("pc build: %v", err)
					}
					if m.Unpreconditioned {
						pcInst = nil
					}
					e := engine.NewSeq(a, pcInst)
					opt := Defaults()
					opt.RelTol = pc.reltol
					opt.MaxIter = 40000
					res, err := m.Solve(e, b, opt)
					if err != nil {
						t.Fatalf("solve error: %v", err)
					}
					// The reported solution must actually achieve the
					// reported residual (within a conditioning allowance).
					r := make([]float64, a.Rows)
					e2 := make([]float64, a.Rows)
					a.MulVec(r, res.X)
					for i := range r {
						e2[i] = b[i] - r[i]
					}
					trueRel := vec.Norm2(e2) / bnorm
					if res.Converged {
						if trueRel > 1e3*opt.RelTol {
							t.Fatalf("claimed convergence but true relres %g (rtol %g)", trueRel, opt.RelTol)
						}
						return
					}
					// Unconverged is acceptable only for hard problems, and
					// only through a guard with a sane best iterate.
					if pc.easy && !m.Unpreconditioned {
						t.Fatalf("should converge: relres %g (stag=%v div=%v broke=%v, %d iters)",
							res.RelRes, res.Stagnated, res.Diverged, res.BrokeDown, res.Iterations)
					}
					if !res.Stagnated && !res.Diverged && !res.BrokeDown && res.Iterations < opt.MaxIter {
						t.Fatalf("stopped without converging or tripping a guard: %+v", res)
					}
					if trueRel > 10 {
						t.Fatalf("guarded stop left a garbage iterate: true relres %g", trueRel)
					}
				})
			}
		}
	}
}
