// Command scaling regenerates the strong-scaling experiments of the paper:
// Figure 1 (125-pt Poisson, 1M unknowns, Jacobi PC, s=3) and Figure 2 (the
// ecology2 matrix at rtol 1e-2), reporting the speedup of every method
// against PCG on one node across node counts.
//
// Paper scale:
//
//	scaling -problem poisson125 -n 100
//	scaling -problem ecology2 -scale 1
//
// Reduced scale (fast):
//
//	scaling -problem poisson125 -n 40
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scaling: ")
	var (
		problem = flag.String("problem", "poisson125", "workload: poisson125, poisson7, ecology2, thermal2, serena")
		n       = flag.Int("n", 40, "grid dimension for Poisson problems (paper: 100)")
		scale   = flag.Int("scale", 4, "reduction factor for SuiteSparse stand-ins (paper: 1)")
		nodes   = flag.String("nodes", "1,10,20,30,40,50,60,70,80,90,100,110,120", "node counts")
		methods = flag.String("methods", "pcg,pipecg,pipecg3,pipecg-oati,pscg,pipe-scg,pipe-pscg", "methods to compare")
		pc      = flag.String("pc", "jacobi", "preconditioner: none, jacobi, sor, bjacobi, chebyshev, mg, gamg")
		s       = flag.Int("s", 3, "block size for s-step methods")
		rtol    = flag.Float64("rtol", 0, "relative tolerance (0 = problem default)")
		csvPath = flag.String("csv", "", "also write the series as CSV to this path")
		alpha   = flag.Float64("alpha", 0, "override machine allreduce per-hop latency in seconds (0 = calibrated default)")
	)
	flag.Parse()

	pr, err := workload.ProblemByName(*problem, *n, *scale)
	if err != nil {
		log.Fatal(err)
	}
	nodeList, err := bench.ParseInts(*nodes)
	if err != nil {
		log.Fatal(err)
	}
	opt := workload.DefaultOptions(pr)
	opt.S = *s
	if *rtol > 0 {
		opt.RelTol = *rtol
	}
	m := sim.CrayXC40()
	if *alpha > 0 {
		m.AllreduceAlpha = *alpha
	}
	fmt.Printf("problem %s: N=%d nnz=%d rtol=%.0e pc=%s s=%d (machine %s)\n",
		pr.Name, pr.A.Rows, pr.A.NNZ(), opt.RelTol, *pc, *s, m.Name)

	series, err := bench.StrongScaling(pr, bench.ParseList(*methods), *pc, m, nodeList, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatScaling(
		fmt.Sprintf("Strong scaling (speedup vs PCG @ 1 node) — paper Fig. 1/2 analogue for %s", pr.Name),
		series))

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := bench.WriteScalingCSV(f, series); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
}
