package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/workload"
)

// hops is repro overlap's per-hop latency sweep.
var hops = []time.Duration{0, 50 * time.Microsecond, 200 * time.Microsecond, 800 * time.Microsecond}

// parseOverlap parses repro overlap: REAL communication/computation overlap
// on the comm runtime, no cost model. Each method of -method a,b,... is timed
// by wall clock at each hop of a fixed sweep: as it grows the pipelined
// methods pull ahead, their reductions running while the solver computes. A
// second table gives the hidden fraction the overlap ledger measured,
// 1 − wait/interval over posted reductions; blocking methods read 0.
//
//	repro overlap -problem poisson7 -n 24 -method pcg,groppcg,pipecg,pipe-pscg
func parseOverlap(args []string, stderr io.Writer) (runner, error) {
	fs, c := newFlags("overlap", true)
	reps := fs.Int("reps", 3, "repetitions per cell (the fastest is reported)")
	if err := c.parse(fs, args, stderr); err != nil {
		return nil, err
	}
	if *reps < 1 {
		return nil, bad("-reps must be at least 1, got %d", *reps)
	}
	return func(stdout, _ io.Writer) error { return overlap(c, *reps, stdout) }, nil
}

func overlap(c *config, reps int, w io.Writer) error {
	pr, opt, err := c.load()
	if err != nil {
		return err
	}
	header := func() {
		fmt.Fprintf(w, "%-12s", "hop latency")
		for _, m := range c.methods {
			fmt.Fprintf(w, " %12s", m.Name)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "real wall-clock solves, %s, %d ranks (times in ms; min of %d reps)\n", pr.Name, c.ranks, reps)
	header()
	iters := map[string]int{}
	// hidden[hop][method] is the ledger's measured hidden fraction for the
	// fastest repetition of that cell.
	hidden := make([][]obs.OverlapStats, len(hops))
	for hi, hop := range hops {
		hidden[hi] = make([]obs.OverlapStats, len(c.methods))
		fmt.Fprintf(w, "%-12s", hop)
		for mi, m := range c.methods {
			best := time.Duration(0)
			for rep := 0; rep < reps; rep++ {
				out, err := c.spmd(comm.NewFabric(c.ranks, hop), workload.DefaultTracer, pr, m, opt)
				if err != nil {
					return err
				}
				iters[m.Name] = out.Res.Iterations
				if best == 0 || out.Elapsed < best {
					best = out.Elapsed
					hidden[hi][mi] = obs.MergeSummaries(out.Summaries).Overlap
				}
			}
			fmt.Fprintf(w, " %12.1f", float64(best.Microseconds())/1000)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "\nmeasured hidden fraction (overlap ledger: 1 - wait/interval over posted reductions)\n")
	header()
	for hi, hop := range hops {
		fmt.Fprintf(w, "%-12s", hop)
		for _, ov := range hidden[hi] {
			if ov.Posted == 0 {
				fmt.Fprintf(w, " %12s", "0 (blocking)")
				continue
			}
			fmt.Fprintf(w, " %11.0f%%", 100*ov.HiddenFraction())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\niterations:", iters)
	fmt.Fprint(w, `with rising latency, blocking PCG degrades fastest; the pipelined
methods keep computing while their reduction trees are in flight —
the hidden-fraction table shows how much of each posted reduction's
latency the ledger actually saw covered by compute.
`)
	return nil
}
