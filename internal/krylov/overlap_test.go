package krylov

import (
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/partition"
)

// measuredOverlap runs one solver SPMD on the comm runtime with the given
// injected hop latency, one tracer per rank, and returns the aggregate
// overlap summary across ranks.
func measuredOverlap(t *testing.T, solve Solver, hop time.Duration) obs.Summary {
	t.Helper()
	const p = 4
	a := grid.NewSquare(24, grid.Star5).Laplacian()
	b := grid.OnesRHS(a)

	pt := partition.RowBlock(a.Rows, p)
	f := comm.NewFabric(p, hop)
	engines := comm.NewEngines(f, a, pt, jacobiFactory)
	bs := comm.Scatter(pt, b)
	tracers := make([]*obs.Tracer, p)
	for r, e := range engines {
		tracers[r] = obs.New(r)
		e.SetTracer(tracers[r])
	}

	errs := comm.RunErr(engines, func(r int, e *comm.Engine) error {
		opt := Defaults()
		opt.RelTol = 1e-7
		res, err := solve(e, bs[r], opt)
		if err == nil && !res.Converged {
			t.Errorf("rank %d did not converge", r)
		}
		return err
	})
	if err := f.Close(); err != nil {
		t.Fatalf("fabric leak: %v", err)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	sums := make([]obs.Summary, p)
	for r, tr := range tracers {
		sums[r] = tr.Summary()
	}
	return obs.MergeSummaries(sums)
}

// TestMeasuredOverlapEfficiency is the acceptance pin for the overlap
// ledger: on the comm runtime with injected hop latency (a hop of the
// repro overlap sweep), the hidden fraction MEASURED for PIPE-PsCG — not
// inferred from counters — must clearly exceed PCG's, and PCG's must be
// exactly zero (a method with only blocking reductions has nothing to
// hide, by definition of the ledger).
func TestMeasuredOverlapEfficiency(t *testing.T) {
	const hop = 200 * time.Microsecond

	pcg := measuredOverlap(t, PCG, hop)
	if pcg.Overlap.Posted != 0 {
		t.Fatalf("PCG posted %d non-blocking reductions, want 0", pcg.Overlap.Posted)
	}
	if hf := pcg.HiddenFraction(); hf != 0 {
		t.Fatalf("PCG hidden fraction = %v, want exactly 0", hf)
	}
	if pcg.Overlap.Blocking == 0 {
		t.Fatal("PCG recorded no blocking reductions — ledger not wired")
	}

	pipe := measuredOverlap(t, PIPEPSCG, hop)
	if pipe.Overlap.Posted == 0 {
		t.Fatal("PIPE-PsCG posted no non-blocking reductions — ledger not wired")
	}
	hf := pipe.HiddenFraction()
	if hf <= 0.15 {
		t.Fatalf("PIPE-PsCG measured hidden fraction = %v, want > 0.15 with %v hop latency", hf, hop)
	}
	if hf <= pcg.HiddenFraction() {
		t.Fatalf("PIPE-PsCG hidden fraction %v must exceed PCG's %v", hf, pcg.HiddenFraction())
	}
	// The ledger must also have measured real compute under the posted
	// reductions — that is what the hidden time was spent on.
	if pipe.Overlap.ComputeUnderNS <= 0 {
		t.Fatal("no compute measured under posted reductions")
	}
}

// TestVariantFamilyOverlap pins the same ledger contract for the
// stability-aware variants: pipe-pr-cg and pipe-m-cg-rr keep a measured
// hidden fraction comparable to PIPE-PsCG's (clearly above PCG's exact 0)
// under injected hop latency, because their reductions stay posted behind
// the overlapped SPMVs even with the extra recompute/replacement kernels.
func TestVariantFamilyOverlap(t *testing.T) {
	const hop = 200 * time.Microsecond

	for _, tc := range []struct {
		name  string
		solve Solver
	}{
		{"pipe-pr-cg", PIPEPRCG},
		{"pipe-m-cg-rr", PIPEMCGRR},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sum := measuredOverlap(t, tc.solve, hop)
			if sum.Overlap.Posted == 0 {
				t.Fatalf("%s posted no non-blocking reductions — ledger not wired", tc.name)
			}
			hf := sum.HiddenFraction()
			if hf <= 0.15 {
				t.Fatalf("%s measured hidden fraction = %v, want > 0.15 with %v hop latency", tc.name, hf, hop)
			}
			if sum.Overlap.ComputeUnderNS <= 0 {
				t.Fatalf("%s: no compute measured under posted reductions", tc.name)
			}
		})
	}
}

// TestTracedSolveBitIdentical pins the "strictly observational" contract at
// the solver level: the same solve with and without tracers attached must
// produce bit-identical iterates, histories and counter ledgers.
func TestTracedSolveBitIdentical(t *testing.T) {
	a := grid.NewSquare(16, grid.Star5).Laplacian()
	b := grid.OnesRHS(a)

	run := func(traced bool) ([]float64, int, int) {
		const p = 4
		pt := partition.RowBlock(a.Rows, p)
		f := comm.NewFabric(p, 0)
		engines := comm.NewEngines(f, a, pt, jacobiFactory)
		if traced {
			for r, e := range engines {
				e.SetTracer(obs.New(r))
			}
		}
		bs := comm.Scatter(pt, b)
		results := make([]*Result, p)
		errs := comm.RunErr(engines, func(r int, e *comm.Engine) error {
			opt := Defaults()
			opt.RelTol = 1e-8
			var err error
			results[r], err = PIPEPSCG(e, bs[r], opt)
			return err
		})
		reduces := engines[0].Counters().TotalAllreduces()
		_ = f.Close()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		xs := make([][]float64, p)
		for r := range xs {
			xs[r] = results[r].X
		}
		return comm.Gather(pt, xs), results[0].Iterations, reduces
	}

	x0, it0, red0 := run(false)
	x1, it1, red1 := run(true)
	if it0 != it1 || red0 != red1 {
		t.Fatalf("tracing changed the solve: iters %d vs %d, reduces %d vs %d", it0, it1, red0, red1)
	}
	for i := range x0 {
		if x0[i] != x1[i] {
			t.Fatalf("x[%d] differs with tracing: %g vs %g", i, x0[i], x1[i])
		}
	}
}
