// Tuner: the paper's future-work feature — given the linear system
// dimensions and the core count, pick the optimal s for PIPE-PsCG from the
// Table I cost model, then verify the choice against the simulator.
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	pr := workload.Poisson125(24) // 13.8k unknowns — fast demo
	m := sim.CrayXC40()

	model := perfmodel.Problem{
		N: pr.A.Rows, NNZ: pr.A.NNZ(),
		PCFlops: float64(pr.A.Rows), PCBytes: 24 * float64(pr.A.Rows),
	}

	fmt.Printf("auto-s tuner for %s (N=%d, nnz=%d) on %s\n\n", pr.Name, pr.A.Rows, pr.A.NNZ(), m.Name)
	fmt.Println("model prediction:")
	scales := []int{1, 10, 40, 80, 140}
	choices := map[int]int{}
	for _, nodes := range scales {
		p := nodes * m.CoresPerNode
		s, t := perfmodel.ChooseS(m, model, p, 8)
		choices[nodes] = s
		fmt.Printf("  %3d nodes: optimal s = %d (predicted %.3g s per iteration)\n", nodes, s, t)
	}

	// Verify with the simulator: run PIPE-PsCG at several s and report the
	// measured (modeled) time at each scale.
	fmt.Println("\nsimulator check (modeled time to convergence, seconds):")
	opt := workload.DefaultOptions(pr)
	svals := []int{1, 2, 3, 4, 5, 6}
	runs := map[int]*bench.Run{}
	for _, s := range svals {
		o := opt
		o.S = s
		run, err := bench.RunSim(pr, "pipe-pscg", "jacobi", o)
		if err != nil {
			log.Fatal(err)
		}
		runs[s] = run
	}
	fmt.Printf("  nodes")
	for _, s := range svals {
		fmt.Printf("     s=%d", s)
	}
	fmt.Println("   model-pick")
	for _, nodes := range scales {
		p := nodes * m.CoresPerNode
		fmt.Printf("  %5d", nodes)
		bestS, bestT := 0, 0.0
		for _, s := range svals {
			t := runs[s].Eng.Evaluate(m, p).Total
			if bestS == 0 || t < bestT {
				bestS, bestT = s, t
			}
			fmt.Printf("  %6.4f", t)
		}
		fmt.Printf("   s=%d (sim best s=%d)\n", choices[nodes], bestS)
	}
	fmt.Println("\nnote: at this demo's tiny problem size the setup kernels dominate and")
	fmt.Println("the simulator favors small s; at the paper's 1M-unknown scale the")
	fmt.Println("model's growing-s choice matches the simulator (see cmd/repro -full fig3).")
}
