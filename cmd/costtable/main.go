// Command costtable regenerates Table I of the paper: the analytic cost
// model of every PCG variant for s iterations (allreduce count, overlap
// expression, FLOPS ×N, resident vectors), then validates the implemented
// methods against it with instrumented counters from a real solve.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/perfmodel"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("costtable: ")
	var (
		s = flag.Int("s", 3, "block size")
		n = flag.Int("n", 24, "grid dimension for the validation problem")
	)
	flag.Parse()

	// Analytic Table I.
	fmt.Printf("Table I (analytic) at s=%d — per s iterations\n", *s)
	headers := []string{"method", "#allr", "time", "flops(xN)", "memory(vectors)"}
	var rows [][]string
	for _, r := range perfmodel.TableI(*s) {
		rows = append(rows, []string{string(r.Method), fmt.Sprintf("%g", r.Allreduces),
			r.TimeExpr, fmt.Sprintf("%g", r.Flops), fmt.Sprintf("%g", r.Memory)})
	}
	fmt.Print(bench.FormatTable(headers, rows))

	// Measured validation: kernel counts and VMA flops per s iterations.
	fmt.Printf("\nMeasured per %d iterations (125-pt Poisson, n=%d, Jacobi):\n", *s, *n)
	pr := workload.Poisson125(*n)
	opt := workload.DefaultOptions(pr)
	opt.S = *s
	opt.RelTol = 0 // fixed-length runs
	opt.AbsTol = 0

	headers = []string{"method", "#allr/s-iter", "#spmv/s-iter", "#pc/s-iter", "flops(xN)/s-iter"}
	rows = rows[:0]
	for _, meth := range measuredMethods {
		// Stay within the convergent phase: running past machine accuracy
		// triggers restarts/deflation that would contaminate the counts.
		long := measured(pr, meth, opt, 8**s)
		short := measured(pr, meth, opt, 4**s)
		dIter := long.Iterations - short.Iterations
		if dIter <= 0 {
			log.Fatalf("%s: no iteration delta", meth)
		}
		perS := float64(*s) / float64(dIter)
		rows = append(rows, []string{meth,
			fmt.Sprintf("%.2f", float64(long.TotalAllreduces()-short.TotalAllreduces())*perS),
			fmt.Sprintf("%.2f", float64(long.SpMV-short.SpMV)*perS),
			fmt.Sprintf("%.2f", float64(long.PCApply-short.PCApply)*perS),
			fmt.Sprintf("%.1f", (long.Flops-short.Flops)/float64(pr.A.Rows)*perS),
		})
	}
	fmt.Print(bench.FormatTable(headers, rows))
	fmt.Println("\n(Deltas between a long and a short run isolate steady-state cost from setup;")
	fmt.Println(" the s-step rows carry the fused-Gram payload and generic-block LC overhead")
	fmt.Println(" documented in DESIGN.md §2 and EXPERIMENTS.md.)")
}

// measuredMethods are the rows of the measured validation table.
var measuredMethods = []string{"pcg", "cg-cg", "groppcg", "pipecg", "pipecg3", "pipecg-oati", "scg", "pscg", "scg-s", "pipe-scg", "pipe-pscg"}

// measured runs a method for maxIter iterations on a sequential engine and
// returns a copy of its kernel counters.
func measured(pr workload.Problem, meth string, opt krylov.Options, maxIter int) trace.Counters {
	m, err := krylov.MethodByName(meth)
	if err != nil {
		log.Fatal(err)
	}
	pc, err := workload.PC(workload.EffectivePC(m, "jacobi"), pr)
	if err != nil {
		log.Fatal(err)
	}
	e := engine.NewSeq(pr.A, pc)
	opt.MaxIter = maxIter
	if _, err := m.Solve(e, pr.B, opt); err != nil {
		log.Fatalf("%s: %v", meth, err)
	}
	return *e.Counters()
}
