package bench

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/workload"
)

// solveSeq runs one method on the sequential engine; pr.Op selects the
// operator (nil = the assembled CSR).
func solveSeq(t *testing.T, pr workload.Problem, method string) *krylov.Result {
	t.Helper()
	m, err := krylov.MethodByName(method)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := workload.PC(workload.EffectivePC(m, "jacobi"), pr)
	if err != nil {
		t.Fatal(err)
	}
	opt := workload.DefaultOptions(pr)
	opt.S = 3
	res, err := m.Solve(engine.NewSeq(pr.Operator(), pc), pr.B, opt)
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	return res
}

// solveComm runs one method on the goroutine-rank runtime through the shared
// SPMD driver and returns rank 0's result with the assembled iterate.
func solveComm(t *testing.T, pr workload.Problem, method string, ranks int) *krylov.Result {
	t.Helper()
	m, err := krylov.MethodByName(method)
	if err != nil {
		t.Fatal(err)
	}
	opt := workload.DefaultOptions(pr)
	opt.S = 3
	out, err := workload.SPMD{Fabric: comm.NewFabric(ranks, 0), PC: "jacobi"}.Run(pr, m, pr.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := out.FirstErr(); err != nil {
		t.Fatalf("rank %d: %v", r, err)
	}
	if out.Leak != nil {
		t.Fatal(out.Leak)
	}
	return out.Res
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
	for _, name := range []string{"poisson7", "poisson5", "poisson125"} {
		pr, err := workload.ProblemByName(name, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Op == nil {
			t.Fatalf("%s: no matrix-free operator", name)
		}
		csr := pr
		csr.Op = nil
		for _, method := range methods {
			want := solveSeq(t, csr, method)
			if !want.Converged {
				t.Fatalf("%s/%s: CSR reference did not converge", name, method)
			}
			got := solveSeq(t, pr, method)
			sameBits(t, name+"/"+method+"/seq", got, want)
			for _, ranks := range []int{1, 4} {
				wantP := solveComm(t, csr, method, ranks)
				gotP := solveComm(t, pr, method, ranks)
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
