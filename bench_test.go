// Package repro_test holds the benchmark harness entry points: one
// testing.B benchmark per table and figure of the paper's evaluation
// section, plus ablation benches for the design choices DESIGN.md calls out.
// Each bench runs reduced-scale workloads so `go test -bench=.` finishes in
// minutes; the cmd/ tools run the same experiments at paper scale.
//
// Custom metrics reported per benchmark (via b.ReportMetric):
//
//	speedup-*   modeled speedup vs PCG at one node (the papers' y-axes)
//	iters       solver iterations to convergence
package repro_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/perfmodel"
	"repro/internal/precond"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchPoisson is the reduced-scale 125-pt problem the benches share.
func benchPoisson(b *testing.B) workload.Problem {
	b.Helper()
	return workload.Poisson125(24) // 13.8k unknowns
}

// BenchmarkTableICounters validates Table I: kernel counts per s iterations
// for every method, measured by instrumented counters on a real solve.
func BenchmarkTableICounters(b *testing.B) {
	pr := benchPoisson(b)
	want := map[string]struct{ spmv, pc, allr float64 }{ // per s=3 iterations
		"pcg":       {3, 3, 9},
		"pipecg":    {3, 3, 3},
		"pscg":      {4, 4, 1},
		"scg-s":     {3, 0, 1},
		"pipe-pscg": {3, 3, 1},
	}
	for i := 0; i < b.N; i++ {
		for meth, w := range want {
			m, err := krylov.MethodByName(meth)
			if err != nil {
				b.Fatal(err)
			}
			solve := m.Solve
			opt := workload.DefaultOptions(pr)
			opt.RelTol, opt.AbsTol, opt.MaxIter = 0, 0, 24
			var pc engine.Preconditioner
			if !m.Unpreconditioned {
				pc = precond.NewJacobi(pr.A, 0, pr.A.Rows)
			}
			long := engine.NewSeq(pr.A, pc)
			res, err := solve(long, pr.B, opt)
			if err != nil {
				b.Fatal(err)
			}
			opt.MaxIter = 12
			short := engine.NewSeq(pr.A, pc)
			res2, err := solve(short, pr.B, opt)
			if err != nil {
				b.Fatal(err)
			}
			d := float64(res.Iterations-res2.Iterations) / 3
			if d <= 0 {
				b.Fatalf("%s: no delta", meth)
			}
			cl, cs := long.Counters(), short.Counters()
			if got := float64(cl.SpMV-cs.SpMV) / d; got != w.spmv {
				b.Fatalf("%s spmv/s-iter = %g want %g", meth, got, w.spmv)
			}
			if got := float64(cl.PCApply-cs.PCApply) / d; got != w.pc {
				b.Fatalf("%s pc/s-iter = %g want %g", meth, got, w.pc)
			}
			if got := float64(cl.TotalAllreduces()-cs.TotalAllreduces()) / d; got != w.allr {
				b.Fatalf("%s allr/s-iter = %g want %g", meth, got, w.allr)
			}
		}
	}
}

// BenchmarkFig1StrongScalingPoisson regenerates Fig. 1 (reduced scale) and
// reports the headline speedups at the largest node count.
func BenchmarkFig1StrongScalingPoisson(b *testing.B) {
	pr := benchPoisson(b)
	m := sim.CrayXC40()
	nodes := []int{1, 10, 40, 80, 120}
	methods := []string{"pcg", "pipecg", "pipecg-oati", "pscg", "pipe-pscg"}
	for i := 0; i < b.N; i++ {
		series, err := bench.StrongScaling(pr, methods, "jacobi", m, nodes, workload.DefaultOptions(pr))
		if err != nil {
			b.Fatal(err)
		}
		last := len(nodes) - 1
		for _, s := range series {
			if !s.Converged {
				b.Fatalf("%s did not converge", s.Method)
			}
			b.ReportMetric(s.Speedup[last], "speedup-"+s.Method)
		}
	}
}

// BenchmarkFig2StrongScalingEcology2 regenerates Fig. 2 on the ecology2
// stand-in at rtol 1e-2.
func BenchmarkFig2StrongScalingEcology2(b *testing.B) {
	pr := workload.Ecology2(4) // ≈250×250
	m := sim.CrayXC40()
	nodes := []int{1, 40, 120}
	for i := 0; i < b.N; i++ {
		series, err := bench.StrongScaling(pr, []string{"pcg", "pipecg", "pipe-pscg"}, "jacobi", m, nodes, workload.DefaultOptions(pr))
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			b.ReportMetric(s.Speedup[len(nodes)-1], "speedup-"+s.Method)
		}
	}
}

// BenchmarkTableIISuiteSparse regenerates Table II on the three stand-ins.
func BenchmarkTableIISuiteSparse(b *testing.B) {
	problems := []workload.Problem{workload.Ecology2(8), workload.Thermal2(8), workload.Serena(8)}
	for i := range problems {
		problems[i].RelTol = 1e-5
	}
	methods := []string{"pcg", "pipecg", "pipecg-oati", "hybrid"}
	m := sim.CrayXC40()
	for i := 0; i < b.N; i++ {
		rows, err := bench.TableII(problems, methods, "jacobi", m, 120)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Speedups["hybrid"], "speedup-hybrid-"+r.Matrix)
		}
	}
}

// BenchmarkFig3SSensitivity regenerates Fig. 3: PIPE-PsCG at s = 3, 4, 5.
func BenchmarkFig3SSensitivity(b *testing.B) {
	pr := benchPoisson(b)
	m := sim.CrayXC40()
	for i := 0; i < b.N; i++ {
		series, err := bench.SSensitivity(pr, []int{3, 4, 5}, "jacobi", m, []int{1, 70, 140}, workload.DefaultOptions(pr))
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			name := strings.ReplaceAll(s.Method, " ", "-")
			b.ReportMetric(s.Speedup[len(s.Speedup)-1], "speedup-"+name)
		}
	}
}

// BenchmarkFig4Preconditioners regenerates Fig. 4: PC comparison at 120
// nodes (Jacobi, SOR, MG, GAMG).
func BenchmarkFig4Preconditioners(b *testing.B) {
	pr := benchPoisson(b)
	m := sim.CrayXC40()
	for i := 0; i < b.N; i++ {
		bars, err := bench.PrecondComparison(pr, []string{"jacobi", "sor", "mg", "gamg"},
			[]string{"pcg", "pscg", "pipe-pscg"}, m, 120, workload.DefaultOptions(pr))
		if err != nil {
			b.Fatal(err)
		}
		for _, bar := range bars {
			if bar.Method == "pipe-pscg" {
				b.ReportMetric(bar.Speedup, "speedup-"+bar.PC)
			}
		}
	}
}

// BenchmarkFig5Accuracy regenerates Fig. 5: time for each method to reach
// rtol·‖b‖ at 80 nodes.
func BenchmarkFig5Accuracy(b *testing.B) {
	pr := benchPoisson(b)
	m := sim.CrayXC40()
	for i := 0; i < b.N; i++ {
		trs, err := bench.Accuracy(pr, []string{"pcg", "pipecg", "pipe-pscg"}, "jacobi", m, 80, workload.DefaultOptions(pr))
		if err != nil {
			b.Fatal(err)
		}
		for _, tr := range trs {
			if t := bench.TimeToThreshold(tr); t > 0 {
				b.ReportMetric(t*1000, "ms-to-rtol-"+tr.Method)
			}
		}
	}
}

// BenchmarkAblationAsyncProgress quantifies the paper's §VI-A requirement
// (MPICH async progress): with θ=0 the pipelined method loses its overlap.
func BenchmarkAblationAsyncProgress(b *testing.B) {
	pr := benchPoisson(b)
	for i := 0; i < b.N; i++ {
		run, err := bench.RunSim(pr, "pipe-pscg", "jacobi", workload.DefaultOptions(pr))
		if err != nil {
			b.Fatal(err)
		}
		const p = 2880
		on := sim.CrayXC40()
		off := on
		off.AsyncProgress = 0
		tOn := run.Eng.Evaluate(on, p).Total
		tOff := run.Eng.Evaluate(off, p).Total
		if tOff <= tOn {
			b.Fatal("disabling async progress must hurt")
		}
		b.ReportMetric(tOff/tOn, "slowdown-no-async-progress")
	}
}

// BenchmarkAblationDecomposition compares the DMDA-style box decomposition
// against naive 1D row blocks in the cost model.
func BenchmarkAblationDecomposition(b *testing.B) {
	pr := benchPoisson(b)
	m := sim.CrayXC40()
	for i := 0; i < b.N; i++ {
		run, err := bench.RunSim(pr, "pipe-pscg", "jacobi", workload.DefaultOptions(pr))
		if err != nil {
			b.Fatal(err)
		}
		const p = 2880
		t3d := run.Eng.Evaluate(m, p).Total
		run.Eng.Decomp = nil
		t1d := run.Eng.Evaluate(m, p).Total
		run.Eng.Decomp = pr.Decomp
		b.ReportMetric(t1d/t3d, "rowblock-vs-box-slowdown")
	}
}

// BenchmarkAblationPayloadSize measures the cost of the fused-Gram payload
// (2s+s²+s+2 words) versus the paper's bare 2s-moment message in the
// allreduce model — the substitution DESIGN.md §2 documents.
func BenchmarkAblationPayloadSize(b *testing.B) {
	m := sim.CrayXC40()
	for i := 0; i < b.N; i++ {
		const s, p = 3, 2880
		ours := m.G(p, perfmodel.SStepPayloadWords(s))
		paper := m.G(p, 2*s)
		b.ReportMetric(ours/paper, "payload-G-ratio")
		if ours/paper > 1.01 {
			b.Fatalf("payload overhead should be latency-dominated, got ratio %g", ours/paper)
		}
	}
}

// BenchmarkAblationChooseS exercises the auto-s tuner across scales.
func BenchmarkAblationChooseS(b *testing.B) {
	pr := benchPoisson(b)
	m := sim.CrayXC40()
	model := perfmodel.Problem{N: pr.A.Rows, NNZ: pr.A.NNZ(),
		PCFlops: float64(pr.A.Rows), PCBytes: 24 * float64(pr.A.Rows)}
	for i := 0; i < b.N; i++ {
		sLo, _ := perfmodel.ChooseS(m, model, 24, 8)
		sHi, _ := perfmodel.ChooseS(m, model, 3360, 8)
		b.ReportMetric(float64(sLo), "s-at-1-node")
		b.ReportMetric(float64(sHi), "s-at-140-nodes")
	}
}

// BenchmarkSolverParallelKernels measures end-to-end PIPE-PsCG wall time
// with the kernel layer at 1 worker versus all cores: a fixed 30-iteration
// Jacobi-preconditioned solve on a 125-pt Poisson problem. Iteration counts
// and residuals are bit-identical across pool sizes (the kernels are
// deterministic), so the sub-benchmarks time exactly the same arithmetic.
func BenchmarkSolverParallelKernels(b *testing.B) {
	pr := workload.Poisson125(32) // 32.8k unknowns, ~4M nnz
	pr.A.ChunkPlan()              // build the SPMV plan outside the timed region
	defer par.SetWorkers(0)
	for _, w := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			par.SetWorkers(w)
			var iters int
			for i := 0; i < b.N; i++ {
				pc := precond.NewJacobi(pr.A, 0, pr.A.Rows)
				e := engine.NewSeq(pr.A, pc)
				opt := workload.DefaultOptions(pr)
				opt.RelTol, opt.AbsTol, opt.MaxIter = 0, 0, 30
				res, err := krylov.PIPEPSCG(e, pr.B, opt)
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Iterations
			}
			b.ReportMetric(float64(iters), "iters")
		})
	}
}

// BenchmarkRealOverlapCommRuntime measures genuine wall-clock overlap on the
// goroutine runtime with injected hop latency: PIPE-PsCG (1 hidden reduction
// per s iterations) against PCG (3s exposed reductions).
func BenchmarkRealOverlapCommRuntime(b *testing.B) {
	pr := workload.Poisson7(12)
	const ranks = 4
	const hop = 200 * time.Microsecond
	pt := partition.RowBlock(pr.A.Rows, ranks)
	run := func(solve krylov.Solver) time.Duration {
		out, err := workload.SPMD{Fabric: comm.NewFabric(ranks, hop), Part: pt, PC: "jacobi"}.
			Run(pr, krylov.Method{Solve: solve}, pr.B, workload.DefaultOptions(pr))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := out.FirstErr(); err != nil {
			b.Error(err)
		}
		if out.Leak != nil {
			b.Error(out.Leak)
		}
		return out.Elapsed
	}
	for i := 0; i < b.N; i++ {
		tPCG := run(krylov.PCG)
		tPP := run(krylov.PIPEPSCG)
		b.ReportMetric(float64(tPCG)/float64(tPP), "wallclock-speedup-vs-pcg")
	}
}
