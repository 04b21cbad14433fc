package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blockcg"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/workload"
)

// blockRHS builds k deterministic right-hand sides: column 0 the problem's
// canonical b, the rest seeded Gaussian vectors.
func blockRHS(pr workload.Problem, k int) [][]float64 {
	bs := make([][]float64, k)
	bs[0] = pr.B
	for j := 1; j < k; j++ {
		rng := rand.New(rand.NewSource(int64(100 + j)))
		b := make([]float64, len(pr.B))
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		bs[j] = b
	}
	return bs
}

// BenchmarkBlockSpMV compares k independent CSR SpMV sweeps against one
// block MulMat over the same columns — the amortization the block subsystem
// is built on: one read of A's values and column indices serves every RHS.
func BenchmarkBlockSpMV(b *testing.B) {
	pr := workload.Poisson125(48)
	a := pr.A
	for _, k := range []int{1, 4, 16} {
		xs := blockRHS(pr, k)
		ys := make([][]float64, k)
		for j := range ys {
			ys[j] = make([]float64, a.Rows)
		}
		b.Run(fmt.Sprintf("percol/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					a.MulVec(ys[j], xs[j])
				}
			}
		})
		b.Run(fmt.Sprintf("block/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.MulMat(ys, xs)
			}
		})
	}
}

// BenchmarkBlockSolve measures a width-k gang solve (PCG + Jacobi on the
// 3D Poisson operator) — ns/op is the whole gang; the per-RHS time is
// reported as the ns/rhs metric, which is the number that must fall as k
// grows for the batching to pay.
func BenchmarkBlockSolve(b *testing.B) {
	pr := workload.Poisson125(32)
	for _, k := range []int{1, 4, 16} {
		bs := blockRHS(pr, k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pc, err := workload.PC("jacobi", pr)
				if err != nil {
					b.Fatal(err)
				}
				e := engine.NewSeq(pr.Operator(), pc)
				cols := make([]blockcg.Column, k)
				for j := range cols {
					opt := workload.DefaultOptions(pr)
					cols[j] = blockcg.Column{B: bs[j], Opt: opt}
				}
				out := blockcg.Solve(e, krylov.PCG, cols)
				for j := range out {
					if out[j].Err != nil || out[j].Res == nil || !out[j].Res.Converged {
						b.Fatalf("column %d did not converge: %v", j, out[j].Err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/rhs")
		})
	}
}
