package examples

import (
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/precond"
)

// Example_norms shows the paper's qualitative advantage of PIPE-PsCG (§IV-C)
// — the same solve can test convergence against the preconditioned,
// unpreconditioned or natural residual norm without any extra PC or SPMV
// kernels, unlike PIPELCG, which needs an extra PC and SPMV per iteration
// for two of the three. This example solves one system under each norm and
// shows the kernel counters are identical.
func Example_norms() {
	g := grid.NewCube(24, grid.Box125)
	a := g.Laplacian()
	b := grid.OnesRHS(a)

	fmt.Println("PIPE-PsCG under the three residual norms (125-pt Poisson, 24³):")
	fmt.Printf("%-18s %-6s %-10s %-8s %-8s %s\n",
		"norm", "iters", "relres", "#spmv", "#pc", "#allreduce")
	for _, mode := range []krylov.NormMode{
		krylov.NormPreconditioned, krylov.NormUnpreconditioned, krylov.NormNatural,
	} {
		e := engine.NewSeq(a, precond.NewJacobi(a, 0, a.Rows))
		opt := krylov.Defaults()
		opt.Norm = mode
		res, err := krylov.PIPEPSCG(e, b, opt)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Converged {
			log.Fatalf("norm %v did not converge", mode)
		}
		c := e.Counters()
		fmt.Printf("%-18s %-6d %-10.2e %-8d %-8d %d\n",
			mode, res.Iterations, res.RelRes, c.SpMV, c.PCApply, c.TotalAllreduces())
	}
	fmt.Println("\nSame kernel counts per iteration for every norm — the overlap")
	fmt.Println("structure never changes, which is the method's advantage over")
	fmt.Println("PIPELCG (extra PC+SPMV per iteration for non-natural norms).")

	// Output:
	// PIPE-PsCG under the three residual norms (125-pt Poisson, 24³):
	// norm               iters  relres     #spmv    #pc      #allreduce
	// preconditioned     12     5.99e-06   19       19       6
	// unpreconditioned   18     4.34e-07   25       25       8
	// natural            15     9.39e-07   22       22       7
	//
	// Same kernel counts per iteration for every norm — the overlap
	// structure never changes, which is the method's advantage over
	// PIPELCG (extra PC+SPMV per iteration for non-natural norms).
}
