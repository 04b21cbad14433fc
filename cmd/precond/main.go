// Command precond regenerates Figure 4 of the paper: the PCG variants under
// different preconditioners (Jacobi, SOR, MG, GAMG) at 120 nodes, reporting
// each method's speedup against PCG with the same preconditioner on one node.
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
	log.SetPrefix("precond: ")
	var (
		n       = flag.Int("n", 40, "grid dimension for the 125-pt Poisson problem (paper: 100)")
		nodes   = flag.Int("nodes", 120, "node count for the comparison")
		pcs     = flag.String("pcs", "jacobi,sor,mg,gamg", "preconditioners")
		methods = flag.String("methods", "pcg,pipecg,pipecg-oati,pscg,pipe-pscg", "methods")
	)
	flag.Parse()

	pr := workload.Poisson125(*n)
	m := sim.CrayXC40()
	fmt.Printf("problem %s: N=%d nnz=%d at %d nodes\n", pr.Name, pr.A.Rows, pr.A.NNZ(), *nodes)

	bars, err := bench.PrecondComparison(pr, bench.ParseList(*pcs), bench.ParseList(*methods), m, *nodes, workload.DefaultOptions(pr))
	if err != nil {
		log.Fatal(err)
	}

	methodList := bench.ParseList(*methods)
	headers := append([]string{"pc"}, methodList...)
	byPC := map[string]map[string]bench.PCBar{}
	var pcOrder []string
	for _, b := range bars {
		if byPC[b.PC] == nil {
			byPC[b.PC] = map[string]bench.PCBar{}
			pcOrder = append(pcOrder, b.PC)
		}
		byPC[b.PC][b.Method] = b
	}
	var rows [][]string
	for _, pc := range pcOrder {
		row := []string{pc}
		for _, meth := range methodList {
			b := byPC[pc][meth]
			row = append(row, fmt.Sprintf("%.2fx (%d it)", b.Speedup, b.Iterations))
		}
		rows = append(rows, row)
	}
	fmt.Printf("Preconditioner comparison (speedup vs PCG @ 1 node, same PC) — paper Fig. 4 analogue\n")
	fmt.Print(bench.FormatTable(headers, rows))
}
