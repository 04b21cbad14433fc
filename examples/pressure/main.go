// Pressure: an OpenFOAM-motif pressure Poisson solve (the paper's §VI-E
// points out OpenFOAM solves these at rtol 1e-2) on a heterogeneous 2D
// conductance field, run SPMD on the goroutine runtime with real
// non-blocking allreduces — the Hybrid-pipelined method finishing at a
// tighter tolerance than the s-step recurrences alone support.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/comm"
	"repro/internal/krylov"
	"repro/internal/workload"
)

func main() {
	const ranks = 4

	// A heterogeneous conductance grid (ecology2-like, reduced scale).
	pr := workload.Ecology2(16) // ≈62×62
	fmt.Printf("pressure Poisson: %s stand-in, N=%d nnz=%d, %d SPMD ranks\n",
		pr.Name, pr.A.Rows, pr.A.NNZ(), ranks)

	opt := krylov.Defaults()
	opt.RelTol = 1e-2 // the OpenFOAM default the paper cites

	fabric := comm.NewFabric(ranks, 50*time.Microsecond) // injected hop latency
	out, err := workload.SPMD{Fabric: fabric, PC: "jacobi"}.Run(pr, krylov.Method{Solve: krylov.Hybrid}, pr.B, opt)
	if err != nil {
		log.Fatal(err)
	}
	if r, err := out.FirstErr(); err != nil {
		log.Fatalf("rank %d: %v", r, err)
	}
	if out.Leak != nil {
		log.Fatal(out.Leak)
	}

	res := out.Res
	fmt.Printf("%s: converged=%v in %d iterations, relres=%.3e\n",
		res.Method, res.Converged, res.Iterations, res.RelRes)
	fmt.Printf("wall time %v with real overlapped allreduces (rank-0 counters: %s)\n",
		out.Elapsed.Round(time.Millisecond), &out.Counters[0])

	// The driver reassembled the global pressure field; report its range.
	lo, hi := res.X[0], res.X[0]
	for _, v := range res.X {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	fmt.Printf("pressure field range: [%.4f, %.4f]\n", lo, hi)
}
