package examples

import (
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/precond"
)

// Example_quickstart solves a 3D Poisson problem with the paper's PIPE-PsCG
// method in a few lines — build the operator, pick a preconditioner, solve.
func Example_quickstart() {
	// A 3D Poisson operator on a 32³ grid (7-point stencil), with the
	// right-hand side chosen so the exact solution is the ones vector.
	g := grid.NewCube(32, grid.Star7)
	a := g.Laplacian()
	b := grid.OnesRHS(a)

	// Jacobi preconditioner and a sequential engine (comm.Engine runs real
	// SPMD ranks; sim.NewEngine records through such a Seq for timing).
	pc := precond.NewJacobi(a, 0, a.Rows)
	e := engine.NewSeq(a, pc)

	opt := krylov.Defaults() // rtol 1e-5, s=3, preconditioned norm
	res, err := krylov.PIPEPSCG(e, b, opt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("method:      %s\n", res.Method)
	fmt.Printf("converged:   %v in %d iterations (%d outer, s=%d)\n",
		res.Converged, res.Iterations, res.Outer, opt.S)
	fmt.Printf("rel. residual: %.3e\n", res.RelRes)
	fmt.Printf("x[0] = %.6f (exact solution is 1.0 everywhere)\n", res.X[0])
	fmt.Printf("kernels:     %s\n", e.Counters())

	// Output:
	// method:      pipe-pscg
	// converged:   true in 57 iterations (19 outer, s=3)
	// rel. residual: 3.586e-06
	// x[0] = 1.000005 (exact solution is 1.0 everywhere)
	// kernels:     iter=57 spmv=64 pc=64 allr=1 iallr=20 words=401 flops=1.13e+08
}
