// Command pipescg is the general-purpose CLI solver: pick a problem (built
// in or MatrixMarket file), a method, a preconditioner and a runtime, and
// solve A·x = b, reporting convergence, kernel counters and — under the sim
// runtime — modeled times across node counts.
//
// Runtimes:
//
//	-runtime seq   sequential reference
//	-runtime comm  R goroutine ranks with real non-blocking collectives
//	-runtime sim   virtual-clock cluster model (evaluated at -nodes)
//
// Examples:
//
//	pipescg -problem poisson125 -n 40 -method pipe-pscg -pc jacobi
//	pipescg -problem ecology2 -scale 4 -method hybrid -rtol 1e-5
//	pipescg -matrix m.mtx -method pipecg -runtime comm -ranks 8
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pipescg: ")
	var (
		problem = flag.String("problem", "poisson125", "built-in workload (ignored when -matrix is set)")
		matrix  = flag.String("matrix", "", "MatrixMarket file to solve instead of a built-in problem")
		n       = flag.Int("n", 40, "grid dimension for Poisson problems")
		scale   = flag.Int("scale", 4, "reduction factor for SuiteSparse stand-ins")
		method  = flag.String("method", "pipe-pscg", "solver method")
		pc      = flag.String("pc", "jacobi", "preconditioner")
		s       = flag.Int("s", 3, "block size for s-step methods")
		rtol    = flag.Float64("rtol", 0, "relative tolerance (0 = problem default)")
		maxIter = flag.Int("maxiter", 100000, "iteration cap")
		norm    = flag.String("norm", "preconditioned", "residual norm: preconditioned, unpreconditioned, natural")
		runtime = flag.String("runtime", "seq", "runtime: seq, comm, sim")
		ranks   = flag.Int("ranks", 4, "rank count for -runtime comm")
		latency = flag.Duration("latency", 0, "injected per-hop network latency for -runtime comm")
		nodes   = flag.String("nodes", "1,40,80,120", "node counts to price for -runtime sim")
	)
	flag.Parse()

	pr, err := loadProblem(*matrix, *problem, *n, *scale)
	if err != nil {
		log.Fatal(err)
	}
	opt := workload.DefaultOptions(pr)
	opt.S = *s
	opt.MaxIter = *maxIter
	if *rtol > 0 {
		opt.RelTol = *rtol
	}
	switch *norm {
	case "preconditioned":
		opt.Norm = krylov.NormPreconditioned
	case "unpreconditioned":
		opt.Norm = krylov.NormUnpreconditioned
	case "natural":
		opt.Norm = krylov.NormNatural
	default:
		log.Fatalf("unknown norm %q", *norm)
	}

	meth, err := krylov.MethodByName(*method)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: N=%d nnz=%d method=%s pc=%s s=%d rtol=%.0e norm=%s runtime=%s\n",
		pr.Name, pr.A.Rows, pr.A.NNZ(), *method, *pc, *s, opt.RelTol, opt.Norm, *runtime)

	switch *runtime {
	case "seq":
		pcInst, err := workload.PC(workload.EffectivePC(meth, *pc), pr)
		if err != nil {
			log.Fatal(err)
		}
		e := engine.NewSeq(pr.Operator(), pcInst)
		start := time.Now()
		res, err := meth.Solve(e, pr.B, opt)
		if err != nil {
			log.Fatal(err)
		}
		report(res)
		fmt.Printf("wall time: %v\ncounters: %s\n", time.Since(start).Round(time.Millisecond), e.Counters())

	case "sim":
		run, err := bench.RunSim(pr, *method, *pc, opt)
		if err != nil {
			log.Fatal(err)
		}
		report(run.Result)
		fmt.Printf("counters: %s\n", run.Eng.Counters())
		nodeList, err := bench.ParseInts(*nodes)
		if err != nil {
			log.Fatal(err)
		}
		m := sim.CrayXC40()
		fmt.Println("modeled time to solution:")
		for _, nd := range nodeList {
			b := run.Eng.Evaluate(m, nd*m.CoresPerNode)
			fmt.Printf("  %3d nodes: total %.4gs  compute %.3gs  halo %.3gs  reduce exposed %.3gs hidden %.3gs\n",
				nd, b.Total, b.Compute, b.Halo, b.ReduceExposed, b.ReduceHidden)
		}

	case "comm":
		out, err := workload.SPMD{Fabric: comm.NewFabric(*ranks, *latency), PC: *pc}.Run(pr, meth, pr.B, opt)
		if err != nil {
			log.Fatalf("runtime comm supports %v", err)
		}
		if r, err := out.FirstErr(); err != nil {
			log.Fatalf("rank %d: %v", r, err)
		}
		report(out.Res)
		fmt.Printf("wall time: %v over %d ranks (hop latency %v)\nrank-0 counters: %s\n",
			out.Elapsed.Round(time.Millisecond), *ranks, *latency, &out.Counters[0])
		if out.Leak != nil {
			log.Fatalf("fabric close: %v", out.Leak)
		}

	default:
		log.Fatalf("unknown runtime %q", *runtime)
	}
}

func loadProblem(matrixPath, name string, n, scale int) (workload.Problem, error) {
	if matrixPath == "" {
		return workload.ProblemByName(name, n, scale)
	}
	f, err := os.Open(matrixPath)
	if err != nil {
		return workload.Problem{}, err
	}
	defer f.Close()
	a, err := sparse.ReadMatrixMarket(f)
	if err != nil {
		return workload.Problem{}, err
	}
	return workload.FromMatrix(matrixPath, a), nil
}

func report(res *krylov.Result) {
	fmt.Printf("%s: converged=%v iterations=%d (outer %d) relres=%.3e",
		res.Method, res.Converged, res.Iterations, res.Outer, res.RelRes)
	if res.Stagnated {
		fmt.Print(" [stagnated]")
	}
	if res.BrokeDown {
		fmt.Print(" [breakdown]")
	}
	fmt.Println()
}
