package serve

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// shuffledLap2DMM builds a 2D 5-point Laplacian on an nx×ny grid under a
// random row relabeling — the kind of ordering an uploaded unstructured
// matrix arrives in — serialized as symmetric MatrixMarket (lower triangle).
func shuffledLap2DMM(nx, ny int, seed int64) string {
	n := nx * ny
	relabel := rand.New(rand.NewSource(seed)).Perm(n)
	id := func(x, y int) int { return relabel[y*nx+x] }
	var ents []string
	nnz := 0
	add := func(i, j int, v float64) {
		if j > i {
			return // lower triangle carries the symmetric pair
		}
		ents = append(ents, fmt.Sprintf("%d %d %g", i+1, j+1, v))
		nnz++
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := id(x, y)
			add(i, i, 4)
			if x > 0 {
				add(i, id(x-1, y), -1)
			}
			if x < nx-1 {
				add(i, id(x+1, y), -1)
			}
			if y > 0 {
				add(i, id(x, y-1), -1)
			}
			if y < ny-1 {
				add(i, id(x, y+1), -1)
			}
		}
	}
	return fmt.Sprintf("%%%%MatrixMarket matrix coordinate real symmetric\n%d %d %d\n%s\n",
		n, n, nnz, strings.Join(ents, "\n"))
}

// TestUploadRCMReordersAndRoundTrips is the RCM acceptance gate: an uploaded
// matrix is RCM-reordered at registry build time — measurably shrinking
// bandwidth and row-block halo volume — while a daemon solve still returns
// its iterate in the client's original row ordering, matching a direct
// un-reordered solve.
func TestUploadRCMReordersAndRoundTrips(t *testing.T) {
	mm := shuffledLap2DMM(12, 11, 3)

	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/matrices/shuffled", strings.NewReader(mm))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}

	// Inspect the built entry: the registry must hold the reordered system.
	entry, err := s.Jobs.reg.Acquire(ProblemSpec{Problem: "shuffled"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Jobs.reg.Release(entry)
	pr := entry.Problem()
	orig, err := sparse.ReadMatrixMarket(strings.NewReader(mm))
	if err != nil {
		t.Fatal(err)
	}
	if pr.Perm == nil {
		t.Fatal("upload was not reordered")
	}
	if got, want := pr.A.Bandwidth(), orig.Bandwidth(); got >= want {
		t.Fatalf("bandwidth %d not reduced from %d", got, want)
	}
	const ranks = 4
	halOrig := partition.ComputeStats(orig, partition.RowBlockByNNZ(orig, ranks)).TotalHaloCols
	halRCM := partition.ComputeStats(pr.A, partition.RowBlockByNNZ(pr.A, ranks)).TotalHaloCols
	if halRCM >= halOrig {
		t.Fatalf("halo volume %d not reduced from %d", halRCM, halOrig)
	}
	t.Logf("bandwidth %d→%d, halo volume (P=%d) %d→%d",
		orig.Bandwidth(), pr.A.Bandwidth(), ranks, halOrig, halRCM)

	// Round trip through the job runner, seq and comm.
	for _, ranksReq := range []int{0, ranks} {
		st := decodeStatus(t, postJSON(t, ts.URL+"/v1/solve", SolveRequest{
			ProblemSpec: ProblemSpec{Problem: "shuffled"},
			Method:      "pipe-pscg", PC: "jacobi", IncludeX: true, Ranks: ranksReq,
		}))
		if st.State != JobConverged {
			t.Fatalf("ranks=%d: state=%s error=%q", ranksReq, st.State, st.Error)
		}

		// Reference: the same solve on the un-reordered system.
		ref := workload.Problem{Name: "ref", A: orig, B: grid.OnesRHS(orig), RelTol: 1e-5}
		pc, err := workload.PC("jacobi", ref)
		if err != nil {
			t.Fatal(err)
		}
		opt := workload.DefaultOptions(ref)
		opt.S = 3
		res, err := krylov.PIPEPSCG(engine.NewSeq(ref.A, pc), ref.B, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("reference solve did not converge")
		}

		// Same outcome tier, and the un-permuted iterate solves the original
		// system: both are rtol-accurate solutions of one SPD system, so they
		// agree to solver accuracy (not bitwise — the orderings differ).
		if len(st.X) != len(res.X) {
			t.Fatalf("X length %d vs %d", len(st.X), len(res.X))
		}
		var maxDiff, maxRef float64
		for i := range st.X {
			maxDiff = math.Max(maxDiff, math.Abs(st.X[i]-res.X[i]))
			maxRef = math.Max(maxRef, math.Abs(res.X[i]))
		}
		if maxDiff > 1e-3*maxRef {
			t.Fatalf("ranks=%d: un-permuted iterate differs: max |Δ| = %g (ref %g)",
				ranksReq, maxDiff, maxRef)
		}
	}
}
