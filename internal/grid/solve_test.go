package grid_test

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blockcg"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/vec"
	"repro/internal/workload"
)

// xHash is the FNV-1a digest of x's bits, serve.XHash's fingerprint.
func xHash(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		u := math.Float64bits(v)
		for k := range b {
			b[k] = byte(u >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSolvesBitIdenticalAcrossPaths: PIPE-PsCG and PCG with Jacobi on
// poisson7 16³ (the line kernels) and on poisson125 20³ (the box kernels),
// and an 8-wide blockcg PCG gang on poisson125 20³ (serve_burst's job
// shape), give the same iterate bits with the stencil kernels on the Go
// loops and on the four-wide kernels.
func TestSolvesBitIdenticalAcrossPaths(t *testing.T) {
	if !vec.AVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	for _, pr := range []workload.Problem{workload.Poisson7(16), workload.Poisson125(20)} {
		for _, m := range []struct {
			name  string
			solve krylov.Solver
		}{{"pipe-pscg", krylov.PIPEPSCG}, {"pcg", krylov.PCG}} {
			var hashes [2]uint64
			var iters [2]int
			for path, on := range []bool{false, true} {
				restore := grid.SetAVX2(on)
				res, err := m.solve(engine.NewSeq(pr.Operator(), jacobi(t, pr)), pr.B, workload.DefaultOptions(pr))
				restore()
				if err != nil || !res.Converged {
					t.Fatalf("%s %s: converged=%v err=%v", pr.Name, m.name, res != nil && res.Converged, err)
				}
				hashes[path], iters[path] = xHash(res.X), res.Iterations
			}
			if hashes[0] != hashes[1] || iters[0] != iters[1] {
				t.Errorf("%s %s: Go loops x_hash %016x after %d iterations, four-wide %016x after %d",
					pr.Name, m.name, hashes[0], iters[0], hashes[1], iters[1])
			}
		}
	}
	pr := workload.Poisson125(20)
	cols := make([]blockcg.Column, 8)
	for j := range cols {
		rng := rand.New(rand.NewSource(int64(j + 1)))
		b := make([]float64, len(pr.B))
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		cols[j] = blockcg.Column{B: b, Opt: workload.DefaultOptions(pr)}
	}
	var hashes [2][]uint64
	for path, on := range []bool{false, true} {
		restore := grid.SetAVX2(on)
		out := blockcg.Solve(engine.NewSeq(pr.Operator(), jacobi(t, pr)), krylov.PCG, cols)
		restore()
		for j, r := range out {
			if r.Err != nil || !r.Res.Converged {
				t.Fatalf("gang column %d: err=%v", j, r.Err)
			}
			hashes[path] = append(hashes[path], xHash(r.Res.X))
		}
	}
	for j := range cols {
		if hashes[0][j] != hashes[1][j] {
			t.Errorf("poisson125 gang column %d: Go loops x_hash %016x, four-wide %016x", j, hashes[0][j], hashes[1][j])
		}
	}
}

func jacobi(t *testing.T, pr workload.Problem) engine.Preconditioner {
	pc, err := workload.PC("jacobi", pr)
	if err != nil {
		t.Fatal(err)
	}
	return pc
}
