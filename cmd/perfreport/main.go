// Command perfreport measures the operator hot-path kernels — matrix-free
// stencil SPMV versus the assembled CSR, the fused SPMV+dot powers-block
// step versus separate sweeps, the blocked Gram/moment assembly versus
// per-entry dots, and the effect of RCM reordering on bandwidth, halo
// volume and SPMV time — and writes the results as JSON (BENCH_pr6.json in
// the repo root is the committed snapshot). Solver-level numbers come from
// the obs phase aggregates of full PIPE-PsCG solves, so the kernel wins are
// tied to the spans the runtime actually reports.
//
// With -block the command instead measures the multi-RHS block subsystem
// (internal/blockcg): per-RHS block-SPMV cost and per-RHS gang-solve
// throughput at widths 1..16 against the width-1 baseline (BENCH_pr8.json
// in the repo root is the committed snapshot).
//
// Usage:
//
//	go run ./cmd/perfreport -o BENCH_pr6.json
//	go run ./cmd/perfreport -block -o BENCH_pr8.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/blockcg"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/vec"
	"repro/internal/workload"
)

// Kernel is one measured kernel pair: a reference implementation and the
// optimized path, with the speedup the optimization buys.
type Kernel struct {
	Name    string  `json:"name"`
	RefNs   float64 `json:"ref_ns_op"`
	OptNs   float64 `json:"opt_ns_op"`
	RefB    int64   `json:"ref_bytes_op"` // allocated bytes per op
	OptB    int64   `json:"opt_bytes_op"`
	Speedup float64 `json:"speedup"`
}

// RCMReport records what the reordering bought on one operator.
type RCMReport struct {
	Operator        string  `json:"operator"`
	N               int     `json:"n"`
	NNZ             int     `json:"nnz"`
	BandwidthBefore int     `json:"bandwidth_before"`
	BandwidthAfter  int     `json:"bandwidth_after"`
	Ranks           int     `json:"ranks"`
	HaloColsBefore  int     `json:"halo_cols_before"`
	HaloColsAfter   int     `json:"halo_cols_after"`
	SpMVNsBefore    float64 `json:"spmv_ns_before"`
	SpMVNsAfter     float64 `json:"spmv_ns_after"`
}

// SolvePhases is one full solve's phase-span totals (seq engine, obs spans).
type SolvePhases struct {
	Problem    string  `json:"problem"`
	Method     string  `json:"method"`
	S          int     `json:"s"`
	Backend    string  `json:"backend"`
	Iterations int     `json:"iterations"`
	SpMVMs     float64 `json:"spmv_ms"`
	GramMs     float64 `json:"gram_ms"`
	LocalDotMs float64 `json:"local_dots_ms"`
	TotalMs    float64 `json:"spmv_plus_dots_ms"`
}

type Report struct {
	GoMaxProcs int           `json:"go_max_procs"`
	Kernels    []Kernel      `json:"kernels"`
	RCM        RCMReport     `json:"rcm"`
	Solves     []SolvePhases `json:"solver_phase_spans"`
}

func measure(f func()) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f()
		}
	})
}

func kernel(name string, ref, opt func()) Kernel {
	r := measure(ref)
	o := measure(opt)
	k := Kernel{Name: name,
		RefNs: float64(r.NsPerOp()), OptNs: float64(o.NsPerOp()),
		RefB: r.AllocedBytesPerOp(), OptB: o.AllocedBytesPerOp()}
	if k.OptNs > 0 {
		k.Speedup = k.RefNs / k.OptNs
	}
	return k
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// shuffledLap2D builds a 2D 5-point Laplacian under a random row relabeling —
// the ordering profile of an uploaded unstructured MatrixMarket operator.
func shuffledLap2D(nx, ny int, seed int64) *sparse.CSR {
	n := nx * ny
	relabel := rand.New(rand.NewSource(seed)).Perm(n)
	id := func(x, y int) int { return relabel[y*nx+x] }
	b := sparse.NewBuilder(n, n)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := id(x, y)
			b.Add(i, i, 4)
			if x > 0 {
				b.Add(i, id(x-1, y), -1)
			}
			if x < nx-1 {
				b.Add(i, id(x+1, y), -1)
			}
			if y > 0 {
				b.Add(i, id(x, y-1), -1)
			}
			if y < ny-1 {
				b.Add(i, id(x, y+1), -1)
			}
		}
	}
	return b.Build()
}

func stencilKernels(rep *Report) {
	g3 := grid.NewCube(48, grid.Star7)
	a3 := g3.Laplacian()
	op3, ok := g3.MatrixFree()
	if !ok {
		log.Fatal("no 3D matrix-free operator")
	}
	x3 := randVec(a3.Rows, 1)
	y3 := make([]float64, a3.Rows)
	rep.Kernels = append(rep.Kernels, kernel("spmv_3d_star7_csr_vs_stencil",
		func() { a3.MulVec(y3, x3) },
		func() { op3.MulVec(y3, x3) }))

	g2 := grid.NewSquare(320, grid.Star5)
	a2 := g2.Laplacian()
	op2, ok := g2.MatrixFree()
	if !ok {
		log.Fatal("no 2D matrix-free operator")
	}
	x2 := randVec(a2.Rows, 2)
	y2 := make([]float64, a2.Rows)
	rep.Kernels = append(rep.Kernels, kernel("spmv_2d_star5_csr_vs_stencil",
		func() { a2.MulVec(y2, x2) },
		func() { op2.MulVec(y2, x2) }))

	// One powers-block step: y = A·x/σ plus the two moment dots the payload
	// needs from it — three separate sweeps versus the fused kernel.
	const scale = 1 / 1.25
	dots := make([]float64, 2)
	ws := [][]float64{x3, nil}
	n := a3.Rows
	rep.Kernels = append(rep.Kernels, kernel("powers_step_separate_vs_fused",
		func() {
			op3.MulVec(y3, x3)
			vec.Scale(y3, scale)
			dots[0] = vec.Dot(x3, y3)
			dots[1] = vec.Dot(y3, y3)
		},
		func() { op3.MulVecFused(y3, x3, 0, n, 0, scale, ws, dots) }))
}

func gramKernels(rep *Report) {
	const n, s = 100_000, 4
	cols := vec.NewMulti(n, s)
	pows := vec.NewMulti(n, s)
	for j := 0; j < s; j++ {
		copy(cols[j], randVec(n, int64(10+j)))
		copy(pows[j], randVec(n, int64(20+j)))
	}
	c := make([]float64, s*s)
	rep.Kernels = append(rep.Kernels, kernel("gram_sxs_looped_vs_blocked",
		func() {
			for l := 0; l < s; l++ {
				for j := 0; j < s; j++ {
					c[l*s+j] = vec.Dot(cols[l], pows[j])
				}
			}
		},
		func() { vec.GramLocal(c, cols, pows) }))

	// The 2s+2 moment/norm dots of the payload: per-entry sweeps vs DotPairs.
	var xs, ys [][]float64
	for m := 0; m < 2*s; m++ {
		xs = append(xs, cols[m/2%s])
		ys = append(ys, pows[(m-m/2)%s])
	}
	xs = append(xs, cols[0], pows[0])
	ys = append(ys, cols[0], pows[0])
	out := make([]float64, len(xs))
	rep.Kernels = append(rep.Kernels, kernel("moment_dots_looped_vs_paired",
		func() {
			for k := range xs {
				out[k] = vec.Dot(xs[k], ys[k])
			}
		},
		func() { vec.DotPairs(out, xs, ys) }))
}

func rcmReport(rep *Report) {
	const nx, ny, ranks = 300, 300, 8
	a := shuffledLap2D(nx, ny, 7)
	perm := sparse.RCMOrder(a)
	p := sparse.PermuteSym(a, perm)
	x := randVec(a.Rows, 3)
	y := make([]float64, a.Rows)
	before := measure(func() { a.MulVec(y, x) })
	after := measure(func() { p.MulVec(y, x) })
	rep.RCM = RCMReport{
		Operator: fmt.Sprintf("shuffled 2D Laplacian %dx%d", nx, ny),
		N:        a.Rows, NNZ: a.NNZ(),
		BandwidthBefore: a.Bandwidth(), BandwidthAfter: p.Bandwidth(),
		Ranks:          ranks,
		HaloColsBefore: partition.ComputeStats(a, partition.RowBlockByNNZ(a, ranks)).TotalHaloCols,
		HaloColsAfter:  partition.ComputeStats(p, partition.RowBlockByNNZ(p, ranks)).TotalHaloCols,
		SpMVNsBefore:   float64(before.NsPerOp()),
		SpMVNsAfter:    float64(after.NsPerOp()),
	}
}

// solvePhases runs one full solve on the seq engine with a tracer and
// returns the phase-span totals the runtime reports.
func solvePhases(pr workload.Problem, op engine.Operator, backend string, s int) (SolvePhases, error) {
	pc, err := workload.PC("jacobi", pr)
	if err != nil {
		return SolvePhases{}, err
	}
	e := engine.NewSeq(op, pc)
	e.Tr = obs.New(0)
	opt := workload.DefaultOptions(pr)
	opt.S = s
	res, err := krylov.PIPEPSCG(e, pr.B, opt)
	if err != nil {
		return SolvePhases{}, err
	}
	sum := e.Tr.Summary()
	ms := func(p obs.Phase) float64 { return float64(sum.Phases[p].TotalNS) / 1e6 }
	return SolvePhases{
		Problem: pr.Name, Method: "pipe-pscg", S: s, Backend: backend,
		Iterations: res.Iterations,
		SpMVMs:     ms(obs.PhaseSpMV),
		GramMs:     ms(obs.PhaseGram),
		LocalDotMs: ms(obs.PhaseLocalDots),
		TotalMs:    ms(obs.PhaseSpMV) + ms(obs.PhaseGram) + ms(obs.PhaseLocalDots),
	}, nil
}

// BlockSpMVRow is one width point of the block-SPMV comparison: k separate
// CSR sweeps versus one MulMat over the same columns (identical total work,
// so speedup IS the per-RHS speedup).
type BlockSpMVRow struct {
	K        int     `json:"k"`
	PerColNs float64 `json:"per_column_ns_op"` // k scalar MulVec sweeps
	BlockNs  float64 `json:"block_ns_op"`      // one MulMat over k columns
	Speedup  float64 `json:"per_rhs_speedup"`
}

// BlockSolveRow is one width point of the gang-solve throughput curve.
type BlockSolveRow struct {
	K             int     `json:"k"`
	GangNs        float64 `json:"gang_ns_op"` // one width-k gang solve
	PerRHSNs      float64 `json:"per_rhs_ns"`
	PerRHSSpeedup float64 `json:"per_rhs_speedup_vs_k1"`
	RHSPerSec     float64 `json:"rhs_per_sec"`
	Iterations    int     `json:"iterations"` // column-0 iteration count
}

// BlockReport is the -block mode output (BENCH_pr8.json).
type BlockReport struct {
	GoMaxProcs int             `json:"go_max_procs"`
	Problem    string          `json:"problem"`
	N          int             `json:"n"`
	NNZ        int             `json:"nnz"`
	Method     string          `json:"method"`
	PC         string          `json:"pc"`
	SpMV       []BlockSpMVRow  `json:"block_spmv"`
	Solves     []BlockSolveRow `json:"block_solve"`
}

// blockRHS builds k right-hand sides: the problem's canonical b plus seeded
// Gaussian columns.
func blockRHS(pr workload.Problem, k int) [][]float64 {
	bs := make([][]float64, k)
	bs[0] = pr.B
	for j := 1; j < k; j++ {
		bs[j] = randVec(len(pr.B), int64(100+j))
	}
	return bs
}

// blockReport measures the block subsystem on the paper's grid workload:
// the raw SPMV amortization, then full gang solves (PCG + Jacobi) whose
// per-RHS time must fall as the width grows.
func blockReport() *BlockReport {
	const dim = 48
	pr := workload.Poisson125(dim)
	rep := &BlockReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Problem:    pr.Name, N: pr.A.Rows, NNZ: pr.A.NNZ(),
		Method: "pcg", PC: "jacobi",
	}

	widths := []int{1, 4, 8, 16}
	for _, k := range widths {
		xs := blockRHS(pr, k)
		ys := make([][]float64, k)
		for j := range ys {
			ys[j] = make([]float64, pr.A.Rows)
		}
		percol := measure(func() {
			for j := 0; j < k; j++ {
				pr.A.MulVec(ys[j], xs[j])
			}
		})
		block := measure(func() { pr.A.MulMat(ys, xs) })
		row := BlockSpMVRow{K: k,
			PerColNs: float64(percol.NsPerOp()), BlockNs: float64(block.NsPerOp())}
		if row.BlockNs > 0 {
			row.Speedup = row.PerColNs / row.BlockNs
		}
		rep.SpMV = append(rep.SpMV, row)
	}

	var baseline float64
	for _, k := range widths {
		bs := blockRHS(pr, k)
		var iters int
		r := measure(func() {
			pc, err := workload.PC("jacobi", pr)
			if err != nil {
				log.Fatal(err)
			}
			e := engine.NewSeq(pr.Operator(), pc)
			cols := make([]blockcg.Column, k)
			for j := range cols {
				cols[j] = blockcg.Column{B: bs[j], Opt: workload.DefaultOptions(pr)}
			}
			out := blockcg.Solve(e, krylov.PCG, cols)
			for j := range out {
				if out[j].Err != nil || out[j].Res == nil || !out[j].Res.Converged {
					log.Fatalf("block solve k=%d column %d did not converge: %v", k, j, out[j].Err)
				}
			}
			iters = out[0].Res.Iterations
		})
		row := BlockSolveRow{K: k,
			GangNs:     float64(r.NsPerOp()),
			PerRHSNs:   float64(r.NsPerOp()) / float64(k),
			Iterations: iters,
		}
		if row.PerRHSNs > 0 {
			row.RHSPerSec = 1e9 / row.PerRHSNs
		}
		if k == 1 {
			baseline = row.PerRHSNs
		}
		if baseline > 0 {
			row.PerRHSSpeedup = baseline / row.PerRHSNs
		}
		rep.Solves = append(rep.Solves, row)
	}
	return rep
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfreport: ")
	out := flag.String("o", "", "write the JSON report to this file (default stdout)")
	block := flag.Bool("block", false, "measure the multi-RHS block subsystem instead (BENCH_pr8.json)")
	flag.Parse()

	if *block {
		rep := blockReport()
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, '\n')
		if *out == "" {
			os.Stdout.Write(data)
			return
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatal(err)
		}
		for _, r := range rep.SpMV {
			fmt.Printf("block spmv k=%-2d: %12.0f → %12.0f ns/op  (%.2fx per RHS)\n",
				r.K, r.PerColNs, r.BlockNs, r.Speedup)
		}
		for _, r := range rep.Solves {
			fmt.Printf("gang solve k=%-2d: %8.1f ms/RHS, %5.2f RHS/s (%.2fx vs k=1, %d iters)\n",
				r.K, r.PerRHSNs/1e6, r.RHSPerSec, r.PerRHSSpeedup, r.Iterations)
		}
		fmt.Println("wrote", *out)
		return
	}

	rep := &Report{GoMaxProcs: runtime.GOMAXPROCS(0)}
	stencilKernels(rep)
	gramKernels(rep)
	rcmReport(rep)

	pr := workload.Poisson7(32)
	for _, s := range []int{4, 6} {
		csr, err := solvePhases(pr, pr.A, "csr", s)
		if err != nil {
			log.Fatal(err)
		}
		st, err := solvePhases(pr, pr.Operator(), "stencil", s)
		if err != nil {
			log.Fatal(err)
		}
		rep.Solves = append(rep.Solves, csr, st)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	for _, k := range rep.Kernels {
		fmt.Printf("%-36s %10.0f → %10.0f ns/op  (%.2fx)\n", k.Name, k.RefNs, k.OptNs, k.Speedup)
	}
	fmt.Printf("rcm: bandwidth %d → %d, halo cols (P=%d) %d → %d, spmv %.0f → %.0f ns/op\n",
		rep.RCM.BandwidthBefore, rep.RCM.BandwidthAfter, rep.RCM.Ranks,
		rep.RCM.HaloColsBefore, rep.RCM.HaloColsAfter, rep.RCM.SpMVNsBefore, rep.RCM.SpMVNsAfter)
	for _, sv := range rep.Solves {
		fmt.Printf("solve %s s=%d %-7s: spmv %.1f ms, gram %.1f ms (iters %d)\n",
			sv.Problem, sv.S, sv.Backend, sv.SpMVMs, sv.GramMs, sv.Iterations)
	}
	fmt.Println("wrote", *out)
}
