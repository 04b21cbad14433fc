// Command ssense regenerates Figure 3 of the paper: the sensitivity of
// PIPE-PsCG to the block size s (3, 4, 5) on the 125-pt Poisson problem up
// to 140 nodes, plus the auto-s tuner's choice at every scale (the paper's
// stated future work).
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ssense: ")
	var (
		n     = flag.Int("n", 40, "grid dimension for the 125-pt Poisson problem (paper: 100)")
		nodes = flag.String("nodes", "1,10,20,30,40,50,60,70,80,90,100,110,120,130,140", "node counts")
		svals = flag.String("s", "3,4,5", "s values to compare")
		pc    = flag.String("pc", "jacobi", "preconditioner")
	)
	flag.Parse()

	pr := workload.Poisson125(*n)
	nodeList, err := bench.ParseInts(*nodes)
	if err != nil {
		log.Fatal(err)
	}
	sList, err := bench.ParseInts(*svals)
	if err != nil {
		log.Fatal(err)
	}
	m := sim.CrayXC40()
	fmt.Printf("problem %s: N=%d nnz=%d pc=%s\n", pr.Name, pr.A.Rows, pr.A.NNZ(), *pc)

	series, err := bench.SSensitivity(pr, sList, *pc, m, nodeList, workload.DefaultOptions(pr))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatScaling("s sensitivity of PIPE-PsCG — paper Fig. 3 analogue", series))

	// Auto-s tuner (paper §VII future work): model-predicted optimum per scale.
	prModel := perfmodel.Problem{N: pr.A.Rows, NNZ: pr.A.NNZ(),
		PCFlops: float64(pr.A.Rows), PCBytes: 24 * float64(pr.A.Rows)}
	fmt.Println("\nAuto-s tuner (model-predicted optimal s per scale):")
	for _, nd := range nodeList {
		p := nd * m.CoresPerNode
		sBest, t := perfmodel.ChooseS(m, prModel, p, 8)
		fmt.Printf("  %3d nodes (%4d cores): s=%d (predicted %.3g s/iteration)\n", nd, p, sBest, t)
	}
}
