// Command repro runs the complete reproduction suite — every table and
// figure of the paper — and writes the outputs next to each other. It is
// the one-command version of the per-experiment tools (cmd/scaling,
// cmd/suitesparse, cmd/ssense, cmd/precond, cmd/accuracy, cmd/costtable).
//
//	repro              # reduced scale: minutes
//	repro -full        # paper scale: ~half an hour, ≥8 GB RAM
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The method list of each figure and table, by name — selections from
// krylov.Methods, not slices of it: a positional slice silently lost the last
// three names when others were inserted ahead of them. Fig. 1 plots the
// 1-step baselines the paper compares against and the whole s-step family up
// to the headline PIPE-PsCG.
var (
	fig1Methods = []string{
		"pcg", "cg-cg", "groppcg", "pipecg", "pipecg3", "pipecg-oati",
		"scg", "pscg", "scg-s", "pipe-scg", "pipe-pscg",
	}
	fig2Methods   = []string{"pcg", "pipecg", "pipecg3", "pipecg-oati", "pscg", "pipe-pscg"}
	table2Methods = []string{"pcg", "pipecg", "pipecg-oati", "hybrid"}
	fig4Methods   = []string{"pcg", "pipecg", "pipecg-oati", "pscg", "pipe-pscg"}
	fig5Methods   = fig2Methods
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("repro: ")
	var (
		full   = flag.Bool("full", false, "run at paper scale (1M-unknown problems)")
		outDir = flag.String("out", ".", "directory for results_*.txt outputs")
	)
	flag.Parse()

	n, scale := 40, 4
	nodes := []int{1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}
	if *full {
		n, scale = 100, 1
	}
	m := sim.CrayXC40()
	start := time.Now()

	write := func(name, content string) {
		path := *outDir + "/" + name
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%v elapsed)\n", path, time.Since(start).Round(time.Second))
	}

	// Table I.
	var t1 string
	t1 += "Table I (analytic) at s=3 — per s iterations\n"
	for _, r := range perfmodel.TableI(3) {
		t1 += fmt.Sprintf("%-12s allr=%-4g flops=%-6g mem=%g  time=%s\n",
			r.Method, r.Allreduces, r.Flops, r.Memory, r.TimeExpr)
	}
	write("results_table1.txt", t1)

	// Figure 1.
	pr := workload.Poisson125(n)
	series, err := bench.StrongScaling(pr, fig1Methods, "jacobi", m, nodes, workload.DefaultOptions(pr))
	if err != nil {
		log.Fatal(err)
	}
	write("results_fig1.txt", bench.FormatScaling("Fig. 1 — strong scaling, 125-pt Poisson", series))

	// Figure 2.
	eco := workload.Ecology2(scale)
	series, err = bench.StrongScaling(eco, fig2Methods, "jacobi", m, nodes, workload.DefaultOptions(eco))
	if err != nil {
		log.Fatal(err)
	}
	write("results_fig2.txt", bench.FormatScaling("Fig. 2 — strong scaling, ecology2 (rtol 1e-2)", series))

	// Table II.
	mats := []workload.Problem{workload.Ecology2(scale), workload.Thermal2(scale), workload.Serena(scale)}
	for i := range mats {
		mats[i].RelTol = 1e-5
	}
	rows, err := bench.TableII(mats, table2Methods, "jacobi", m, 120)
	if err != nil {
		log.Fatal(err)
	}
	var t2 string
	for _, r := range rows {
		t2 += fmt.Sprintf("%-10s N=%-8d nnz=%-9d pcg=%.2f pipecg=%.2f oati=%.2f hybrid=%.2f\n",
			r.Matrix, r.N, r.NNZ, r.Speedups["pcg"], r.Speedups["pipecg"],
			r.Speedups["pipecg-oati"], r.Speedups["hybrid"])
	}
	write("results_table2.txt", "Table II — SuiteSparse stand-ins @120 nodes, rtol 1e-5\n"+t2)

	// Figure 3.
	series, err = bench.SSensitivity(pr, []int{3, 4, 5}, "jacobi", m, append(nodes, 130, 140), workload.DefaultOptions(pr))
	if err != nil {
		log.Fatal(err)
	}
	write("results_fig3.txt", bench.FormatScaling("Fig. 3 — s sensitivity of PIPE-PsCG", series))

	// Figure 4 (PC setup cost grows fast; cap the problem size).
	n4 := n
	if n4 > 64 {
		n4 = 64
	}
	pr4 := workload.Poisson125(n4)
	bars, err := bench.PrecondComparison(pr4, []string{"jacobi", "sor", "mg", "gamg"},
		fig4Methods, m, 120, workload.DefaultOptions(pr4))
	if err != nil {
		log.Fatal(err)
	}
	var t4 string
	for _, b := range bars {
		t4 += fmt.Sprintf("%-8s %-12s %.2fx (%d it, conv=%v)\n", b.PC, b.Method, b.Speedup, b.Iterations, b.Converged)
	}
	write("results_fig4.txt", "Fig. 4 — preconditioner comparison @120 nodes\n"+t4)

	// Figure 5.
	trs, err := bench.Accuracy(pr, fig5Methods, "jacobi", m, 80, workload.DefaultOptions(pr))
	if err != nil {
		log.Fatal(err)
	}
	t5 := bench.FormatTrajectories("Fig. 5 — relative residual vs modeled time @80 nodes", trs)
	t5 += "\nTime to rtol·||b||:\n"
	for _, tr := range trs {
		t5 += fmt.Sprintf("  %-12s %.4g s\n", tr.Method, bench.TimeToThreshold(tr))
	}
	write("results_fig5.txt", t5)

	fmt.Printf("reproduction suite finished in %v\n", time.Since(start).Round(time.Second))
}
