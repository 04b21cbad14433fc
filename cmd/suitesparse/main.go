// Command suitesparse regenerates Table II of the paper: the SuiteSparse
// matrices (ecology2, thermal2, Serena — here their documented synthetic
// stand-ins) solved to rtol 1e-5 at 120 nodes by PCG, PIPECG, PIPECG-OATI
// and the Hybrid-pipelined method, with speedups against PCG on one node.
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
	log.SetPrefix("suitesparse: ")
	var (
		scale    = flag.Int("scale", 4, "reduction factor for the stand-in matrices (paper: 1)")
		nodes    = flag.Int("nodes", 120, "node count")
		methods  = flag.String("methods", "pcg,pipecg,pipecg-oati,hybrid", "methods (Table II order)")
		matrices = flag.String("matrices", "ecology2,thermal2,serena", "matrices")
		rtol     = flag.Float64("rtol", 1e-5, "relative tolerance (paper Table II: 1e-5)")
	)
	flag.Parse()

	var problems []workload.Problem
	for _, name := range bench.ParseList(*matrices) {
		pr, err := workload.ProblemByName(name, 0, *scale)
		if err != nil {
			log.Fatal(err)
		}
		pr.RelTol = *rtol
		problems = append(problems, pr)
	}

	m := sim.CrayXC40()
	methodList := bench.ParseList(*methods)
	rows, err := bench.TableII(problems, methodList, "jacobi", m, *nodes)
	if err != nil {
		log.Fatal(err)
	}

	headers := append([]string{"matrix", "N", "nnz"}, methodList...)
	var out [][]string
	for _, r := range rows {
		row := []string{r.Matrix, fmt.Sprint(r.N), fmt.Sprint(r.NNZ)}
		best := ""
		bestV := 0.0
		for _, meth := range methodList {
			if v := r.Speedups[meth]; v > bestV {
				best, bestV = meth, v
			}
		}
		for _, meth := range methodList {
			cell := fmt.Sprintf("%.2f", r.Speedups[meth])
			if meth == best {
				cell += " *"
			}
			row = append(row, cell)
		}
		out = append(out, row)
	}
	fmt.Printf("SuiteSparse stand-ins at %d nodes, rtol %.0e — paper Table II analogue\n", *nodes, *rtol)
	fmt.Printf("(speedups vs PCG @ 1 node; * marks the best method per row)\n")
	fmt.Print(bench.FormatTable(headers, out))
	for _, r := range rows {
		fmt.Printf("# %s iterations:", r.Matrix)
		for _, meth := range methodList {
			fmt.Printf(" %s=%d", meth, r.Iters[meth])
		}
		fmt.Println()
	}
}
