// Command overlap demonstrates REAL communication/computation overlap — no
// cost model — on the goroutine runtime: it sweeps the injected per-hop
// network latency and reports measured wall-clock times for PCG (3 blocking
// allreduces per iteration), GROPPCG and PIPECG (hidden reductions) and
// PIPE-PsCG (one hidden reduction per s iterations). As the latency grows,
// the pipelined methods' advantage appears in actual elapsed time, because
// the reduction trees run on background goroutines while the solver
// computes — the paper's core mechanism, physically reproduced in miniature.
//
// A second table reports the MEASURED hidden fraction from the overlap
// ledger (internal/obs): per posted reduction the tracer records the
// post→complete interval and the residual wait at its completion point, so
// the fraction is 1 − wait/interval summed over the solve — observed, not
// inferred from counters. Blocking methods read 0 by construction.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("overlap: ")
	var (
		n       = flag.Int("n", 24, "grid dimension (7-pt Poisson)")
		ranks   = flag.Int("ranks", 4, "goroutine ranks")
		methods = flag.String("methods", "pcg,groppcg,pipecg,pipe-pscg", "methods")
		reps    = flag.Int("reps", 3, "repetitions per cell (min is reported)")
	)
	flag.Parse()

	pr := workload.Poisson7(*n)

	latencies := []time.Duration{0, 50 * time.Microsecond, 200 * time.Microsecond, 800 * time.Microsecond}
	methodList := bench.ParseList(*methods)

	fmt.Printf("real wall-clock solves, %s, %d ranks (times in ms; min of %d reps)\n",
		pr.Name, *ranks, *reps)
	fmt.Printf("%-12s", "hop latency")
	for _, meth := range methodList {
		fmt.Printf(" %12s", meth)
	}
	fmt.Println()

	iters := map[string]int{}
	// hidden[hop][method] is the ledger's measured hidden fraction for the
	// fastest repetition of that cell.
	hidden := make([]map[string]obs.OverlapStats, len(latencies))
	for hi, hop := range latencies {
		hidden[hi] = map[string]obs.OverlapStats{}
		fmt.Printf("%-12s", hop)
		for _, meth := range methodList {
			m, err := krylov.MethodByName(meth)
			if err != nil {
				log.Fatal(err)
			}
			best := time.Duration(0)
			for rep := 0; rep < *reps; rep++ {
				out, err := workload.SPMD{Fabric: comm.NewFabric(*ranks, hop), PC: "jacobi", Tracer: workload.DefaultTracer}.
					Run(pr, m, pr.B, workload.DefaultOptions(pr))
				if err != nil {
					log.Fatal(err)
				}
				if r, err := out.FirstErr(); err != nil {
					log.Fatalf("%s rank %d: %v", meth, r, err)
				}
				if out.Leak != nil {
					log.Fatalf("%s: fabric close: %v", meth, out.Leak)
				}
				iters[meth] = out.Res.Iterations
				if best == 0 || out.Elapsed < best {
					best = out.Elapsed
					hidden[hi][meth] = obs.MergeSummaries(out.Summaries).Overlap
				}
			}
			fmt.Printf(" %12.1f", float64(best.Microseconds())/1000)
		}
		fmt.Println()
	}

	fmt.Printf("\nmeasured hidden fraction (overlap ledger: 1 - wait/interval over posted reductions)\n")
	fmt.Printf("%-12s", "hop latency")
	for _, meth := range methodList {
		fmt.Printf(" %12s", meth)
	}
	fmt.Println()
	for hi, hop := range latencies {
		fmt.Printf("%-12s", hop)
		for _, meth := range methodList {
			ov := hidden[hi][meth]
			if ov.Posted == 0 {
				fmt.Printf(" %12s", "0 (blocking)")
				continue
			}
			fmt.Printf(" %11.0f%%", 100*ov.HiddenFraction())
		}
		fmt.Println()
	}

	fmt.Println("\niterations:", iters)
	fmt.Println("with rising latency, blocking PCG degrades fastest; the pipelined")
	fmt.Println("methods keep computing while their reduction trees are in flight —")
	fmt.Println("the hidden-fraction table shows how much of each posted reduction's")
	fmt.Println("latency the ledger actually saw covered by compute.")
}
