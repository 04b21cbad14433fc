package bench

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/sparse"
)

// solveSeq runs one method on the sequential engine over the given operator.
func solveSeq(t *testing.T, pr Problem, op engine.Operator, method string) *krylov.Result {
	t.Helper()
	m, err := krylov.MethodByName(method)
	if err != nil {
		t.Fatal(err)
	}
	solve := m.Solve
	var pc engine.Preconditioner
	if !m.Unpreconditioned {
		pc, err = MakePC("jacobi", pr)
		if err != nil {
			t.Fatal(err)
		}
	}
	opt := DefaultOptions(pr)
	opt.S = 3
	res, err := solve(engine.NewSeq(op, pc), pr.B, opt)
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	return res
}

// solveComm runs one method on the goroutine-rank runtime over the given
// operator and returns the assembled iterate.
func solveComm(t *testing.T, pr Problem, op engine.Operator, method string, ranks int) *krylov.Result {
	t.Helper()
	m, err := krylov.MethodByName(method)
	if err != nil {
		t.Fatal(err)
	}
	solve := m.Solve
	var factory comm.PCFactory
	if !m.Unpreconditioned {
		factory = func(a *sparse.CSR, lo, hi int) engine.Preconditioner {
			return precond.NewJacobi(a, lo, hi)
		}
	}
	opt := DefaultOptions(pr)
	opt.S = 3
	pt := partition.RowBlockByNNZ(pr.A, ranks)
	f := comm.NewFabric(ranks, 0)
	engines := comm.NewEnginesOp(f, pr.A, op, pt, factory)
	bs := comm.Scatter(pt, pr.B)
	results := make([]*krylov.Result, ranks)
	comm.Run(engines, func(r int, e *comm.Engine) {
		res, err := solve(e, bs[r], opt)
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
			return
		}
		results[r] = res
	})
	if t.Failed() {
		t.FailNow()
	}
	xs := make([][]float64, ranks)
	for r := range xs {
		xs[r] = results[r].X
	}
	out := *results[0]
	out.X = comm.Gather(pt, xs)
	return &out
}

func sameBits(t *testing.T, tag string, got, want *krylov.Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("%s: iterations/converged %d/%v vs %d/%v",
			tag, got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: X length %d vs %d", tag, len(got.X), len(want.X))
	}
	for i := range got.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("%s: X[%d] = %x vs %x", tag, i,
				math.Float64bits(got.X[i]), math.Float64bits(want.X[i]))
		}
	}
}

// TestStencilSolveBitIdenticalToCSR is the solve-level operator-equivalence
// gate: every method of the paper family, run end to end on the matrix-free
// stencil operator, must produce the bit-identical iterate to the assembled
// CSR — sequentially and on the SPMD runtime at P ∈ {1, 4}. The stencil
// shares the CSR's chunk plan geometry, so even the fused in-SPMV dot folds
// must agree bit for bit.
func TestStencilSolveBitIdenticalToCSR(t *testing.T) {
	methods := []string{"pcg", "scg", "pscg", "scg-s", "pipe-scg", "pipe-pscg"}
	for _, name := range []string{"poisson7", "poisson5"} {
		pr, err := ProblemByName(name, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Op == nil {
			t.Fatalf("%s: no matrix-free operator", name)
		}
		for _, method := range methods {
			want := solveSeq(t, pr, pr.A, method)
			if !want.Converged {
				t.Fatalf("%s/%s: CSR reference did not converge", name, method)
			}
			got := solveSeq(t, pr, pr.Op, method)
			sameBits(t, name+"/"+method+"/seq", got, want)
			for _, ranks := range []int{1, 4} {
				wantP := solveComm(t, pr, pr.A, method, ranks)
				gotP := solveComm(t, pr, pr.Op, method, ranks)
				sameBits(t, name+"/"+method+"/comm", gotP, wantP)
				if ranks == 1 {
					// One-rank SPMD matches the sequential path bitwise too
					// (the PR 1 determinism contract).
					sameBits(t, name+"/"+method+"/comm1-vs-seq", gotP, want)
				}
			}
		}
	}
}
