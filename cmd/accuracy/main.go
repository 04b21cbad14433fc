// Command accuracy regenerates Figure 5 of the paper: the relative residual
// of every method as a function of (modeled) time at 80 nodes, including the
// time each method needs to reach the rtol·‖b‖ threshold.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("accuracy: ")
	var (
		n       = flag.Int("n", 40, "grid dimension for the 125-pt Poisson problem (paper: 100)")
		nodes   = flag.Int("nodes", 80, "node count")
		methods = flag.String("methods", "pcg,pipecg,pipecg3,pipecg-oati,pscg,pipe-pscg", "methods")
		pc      = flag.String("pc", "jacobi", "preconditioner")
		rtol    = flag.Float64("rtol", 1e-5, "relative tolerance threshold")
	)
	flag.Parse()

	pr := workload.Poisson125(*n)
	opt := workload.DefaultOptions(pr)
	opt.RelTol = *rtol
	m := sim.CrayXC40()
	fmt.Printf("problem %s: N=%d nnz=%d at %d nodes, rtol %.0e\n", pr.Name, pr.A.Rows, pr.A.NNZ(), *nodes, *rtol)

	trs, err := bench.Accuracy(pr, bench.ParseList(*methods), *pc, m, *nodes, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatTrajectories("Relative residual vs modeled time — paper Fig. 5 analogue", trs))

	fmt.Println("\nTime to reach rtol·||b|| (smaller is better):")
	for _, tr := range trs {
		if t := bench.TimeToThreshold(tr); t >= 0 {
			fmt.Printf("  %-12s %.4g s\n", tr.Method, t)
		} else {
			fmt.Printf("  %-12s (never)\n", tr.Method)
		}
	}
}
