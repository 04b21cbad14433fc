// Command chaos runs any solver on the goroutine-rank runtime under a
// deterministic fault scenario — dropped, duplicated, delayed and bit-flipped
// messages, plus a straggler rank — and reports whether the resilience
// machinery (comm-level ack/resend + checksums, solver-level recovery ladder)
// brought the solve home: convergence verdict, the TRUE residual ‖b − A·x‖/‖b‖
// recomputed from the gathered solution, recovery statistics from
// trace.Counters, the injector's own tally, and the mailbox leak check.
//
// Examples:
//
//	chaos -problem ecology2 -ranks 4 -method pipe-pscg -drop 0.01 -corrupt 0.001
//	chaos -problem poisson7 -n 12 -ranks 7 -method ladder -drop 0.05 -straggler 2 -jitter 2ms
//	chaos -ranks 4 -method pcg -corrupt 0.01 -nochecksum   # corruption reaches the numerics
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/comm"
	"repro/internal/krylov"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaos: ")
	var (
		problem = flag.String("problem", "ecology2", "workload: poisson125, poisson7, ecology2, thermal2, serena")
		n       = flag.Int("n", 12, "grid dimension for Poisson problems")
		scale   = flag.Int("scale", 24, "reduction factor for SuiteSparse stand-ins")
		method  = flag.String("method", "pipe-pscg", "solver method, or 'ladder' for the resilience ladder")
		s       = flag.Int("s", 3, "block size for s-step methods")
		rtol    = flag.Float64("rtol", 1e-5, "relative tolerance")
		maxIter = flag.Int("maxiter", 100000, "iteration cap")
		ranks   = flag.Int("ranks", 4, "rank count")
		latency = flag.Duration("latency", 0, "baseline per-hop network latency")

		seed       = flag.Uint64("seed", 1, "fault injector seed")
		drop       = flag.Float64("drop", 0, "message drop probability")
		dup        = flag.Float64("dup", 0, "message duplication probability")
		delayRate  = flag.Float64("delayrate", 0, "message delay probability")
		delayMax   = flag.Duration("delaymax", time.Millisecond, "maximum injected delay")
		corrupt    = flag.Float64("corrupt", 0, "payload bit-flip probability")
		noChecksum = flag.Bool("nochecksum", false, "disable payload checksums (corruption reaches the numerics)")
		straggler  = flag.Int("straggler", -1, "rank whose sends jitter (-1 = none)")
		jitter     = flag.Duration("jitter", time.Millisecond, "maximum straggler jitter")

		timeout = flag.Duration("timeout", 20*time.Millisecond, "recv deadline (0 = fabric default: block forever, or 50ms×100 when drops are configured)")
		retries = flag.Int("retries", 200, "recv retries before declaring deadlock")
	)
	flag.Parse()

	if *ranks < 1 {
		log.Fatalf("-ranks must be at least 1, got %d", *ranks)
	}
	pr, err := workload.ProblemByName(*problem, *n, *scale)
	if err != nil {
		log.Fatal(err)
	}
	opt := krylov.Defaults()
	opt.RelTol, opt.S, opt.MaxIter = *rtol, *s, *maxIter

	meth, err := krylov.MethodByName(*method)
	if err != nil {
		log.Fatal(err)
	}

	fc := &comm.FaultConfig{
		Seed: *seed, DropRate: *drop, DupRate: *dup,
		DelayRate: *delayRate, DelayMax: *delayMax,
		CorruptRate: *corrupt, Checksum: !*noChecksum,
		StragglerRank: *straggler, StragglerJitter: *jitter,
	}
	f := comm.NewFabric(*ranks, *latency).WithFault(fc)
	if *timeout > 0 {
		// timeout 0 keeps the fabric default — block forever, unless drops
		// made WithFault auto-arm a deadline — instead of disarming it into
		// a guaranteed deadlock under message loss.
		f = f.WithRecvTimeout(*timeout, *retries)
	}

	fmt.Printf("%s: N=%d nnz=%d method=%s s=%d rtol=%.0e ranks=%d\n",
		pr.Name, pr.A.Rows, pr.A.NNZ(), *method, *s, *rtol, *ranks)
	fmt.Printf("faults: seed=%d drop=%.3g dup=%.3g delay=%.3g/%v corrupt=%.3g checksum=%v straggler=%d/%v timeout=%v×%d\n",
		*seed, *drop, *dup, *delayRate, *delayMax, *corrupt, !*noChecksum, *straggler, *jitter, *timeout, *retries)

	out, err := workload.SPMD{Fabric: f, PC: "jacobi"}.Run(pr, meth, pr.B, opt)
	if err != nil {
		log.Fatal(err)
	}
	for r, err := range out.Errs {
		if err != nil {
			fmt.Printf("rank %d error: %v\n", r, err)
		}
	}

	if res := out.Ranks[0]; res != nil {
		fmt.Printf("%s: converged=%v iterations=%d (outer %d) relres=%.3e wall=%v\n",
			res.Method, res.Converged, res.Iterations, res.Outer, res.RelRes, out.Elapsed.Round(time.Millisecond))
		if out.Res != nil {
			fmt.Printf("true residual: %.3e\n", workload.TrueResidual(pr.A, pr.B, out.Res.X))
		}
	}

	// Recovery statistics: solver-level events summed across ranks, the
	// comm layer's own ledger, and the injector's tally.
	var recov, repl, steps, events int
	for _, c := range out.Counters {
		recov += c.Recoveries
		repl += c.ResidualReplacements
		steps += c.LadderStepdowns
		events += c.RecoveryEvents()
	}
	total := f.TotalStats()
	fmt.Printf("solver recoveries: events=%d replacements=%d stepdowns=%d\n", recov, repl, steps)
	fmt.Printf("comm faults: %s\n", total)
	fmt.Printf("recovery events (trace.Counters, all ranks): %d\n", events)

	if out.Leak != nil {
		fmt.Printf("fabric close: %v\n", out.Leak)
	} else {
		fmt.Println("fabric close: clean (no leaked mailbox entries)")
	}
}
