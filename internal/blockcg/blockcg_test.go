package blockcg_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blockcg"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/trace"
	"repro/internal/workload"
)

// distinctRHS returns k deterministic, mutually different right-hand sides:
// column 0 is the problem's canonical b, the rest are seeded pseudo-random.
func distinctRHS(pr workload.Problem, k int, seed int64) [][]float64 {
	cols := make([][]float64, k)
	cols[0] = pr.B
	for j := 1; j < k; j++ {
		rng := rand.New(rand.NewSource(seed + int64(j)))
		cols[j] = make([]float64, len(pr.B))
		for i := range cols[j] {
			cols[j][i] = rng.NormFloat64()
		}
	}
	return cols
}

func solverOf(t *testing.T, method string) krylov.Solver {
	t.Helper()
	m, err := krylov.MethodByName(method)
	if err != nil {
		t.Fatal(err)
	}
	return m.Solve
}

func soloSeq(t *testing.T, pr workload.Problem, method string, b []float64, opt krylov.Options) (*krylov.Result, trace.Counters) {
	t.Helper()
	solver := solverOf(t, method)
	pc, err := workload.PC("jacobi", pr)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.NewSeq(pr.Operator(), pc)
	res, err := solver(e, b, opt)
	if err != nil {
		t.Fatalf("solo %s: %v", method, err)
	}
	return res, *e.Counters()
}

// compareColumn asserts a gang column equals its solo ground truth to the
// bit: iterate, residual history (with ReduceIndex), outcome, and the full
// counter ledger.
func compareColumn(t *testing.T, label string, gang blockcg.Result, solo *krylov.Result, soloC trace.Counters) {
	t.Helper()
	if gang.Err != nil {
		t.Fatalf("%s: gang error: %v", label, gang.Err)
	}
	g := gang.Res
	if g.Converged != solo.Converged || g.Iterations != solo.Iterations {
		t.Fatalf("%s: outcome converged=%v iters=%d, solo converged=%v iters=%d",
			label, g.Converged, g.Iterations, solo.Converged, solo.Iterations)
	}
	for i := range solo.X {
		if g.X[i] != solo.X[i] {
			t.Fatalf("%s: X[%d] = %v, solo %v", label, i, g.X[i], solo.X[i])
		}
	}
	if len(g.History) != len(solo.History) {
		t.Fatalf("%s: history length %d, solo %d", label, len(g.History), len(solo.History))
	}
	for i := range solo.History {
		if g.History[i] != solo.History[i] {
			t.Fatalf("%s: history[%d] = %+v, solo %+v", label, i, g.History[i], solo.History[i])
		}
	}
	gf, sf := gang.Counters.Fields(), soloC.Fields()
	for i := range sf {
		if gf[i].Value != sf[i].Value {
			t.Fatalf("%s: counter %s = %v, solo %v", label, sf[i].Name, gf[i].Value, sf[i].Value)
		}
	}
}

// TestGangBitIdenticalSeq is the core determinism contract: a width-k gang
// on the sequential engine is bit-identical per column — iterates, history,
// counters — to k independent solo solves, for every method in the family.
// Distinct RHS make the columns converge at different iterations, so
// deflation (width shrinking mid-solve) is exercised on every run.
func TestGangBitIdenticalSeq(t *testing.T) {
	pr := workload.Poisson7(10)
	const k = 3
	for _, method := range []string{"pcg", "groppcg", "scg", "pipe-scg", "pscg", "pipe-pscg"} {
		t.Run(method, func(t *testing.T) {
			opt := workload.DefaultOptions(pr)
			opt.S = 3
			rhs := distinctRHS(pr, k, 42)

			solos := make([]*krylov.Result, k)
			soloCs := make([]trace.Counters, k)
			for j := 0; j < k; j++ {
				solos[j], soloCs[j] = soloSeq(t, pr, method, rhs[j], opt)
			}

			solver := solverOf(t, method)
			pc, err := workload.PC("jacobi", pr)
			if err != nil {
				t.Fatal(err)
			}
			base := engine.NewSeq(pr.Operator(), pc)
			cols := make([]blockcg.Column, k)
			for j := range cols {
				cols[j] = blockcg.Column{B: rhs[j], Opt: opt}
			}
			results := blockcg.Solve(base, solver, cols)
			deflated := false
			for j := range results {
				compareColumn(t, fmt.Sprintf("%s col %d", method, j), results[j], solos[j], soloCs[j])
				if j > 0 && results[j].Res.Iterations != results[0].Res.Iterations {
					deflated = true
				}
			}
			if !deflated {
				t.Logf("%s: all columns converged at the same iteration; deflation path not exercised", method)
			}
		})
	}
}

// TestGangBitIdenticalComm runs the gang on the distributed runtime: each
// rank hosts a width-k gang over its comm engine, and every column's
// gathered iterate must match the solo comm solve bit for bit. This checks
// that batch composition — and with it the packed halo payloads and the
// collective sequence — stays rank-consistent.
func TestGangBitIdenticalComm(t *testing.T) {
	pr := workload.Poisson7(8)
	const k = 3
	method := "pipe-pscg"
	solver := solverOf(t, method)
	opt := workload.DefaultOptions(pr)
	opt.S = 3
	rhs := distinctRHS(pr, k, 7)

	pcf := func(a *sparse.CSR, lo, hi int) engine.Preconditioner {
		return precond.NewJacobi(a, lo, hi)
	}

	runComm := func(p int, gang bool) [][]float64 {
		f := comm.NewFabric(p, 0)
		defer f.Close()
		pt := partition.RowBlockByNNZ(pr.A, p)
		engines := comm.NewEnginesOp(f, pr.A, pr.Operator(), pt, pcf)
		bs := make([][][]float64, k) // per column, per rank local blocks
		for j := range bs {
			bs[j] = comm.Scatter(pt, rhs[j])
		}
		xParts := make([][][]float64, k) // per column, per rank local solutions
		for j := range xParts {
			xParts[j] = make([][]float64, p)
		}
		errs := comm.RunErr(engines, func(rank int, e *comm.Engine) error {
			if gang {
				cols := make([]blockcg.Column, k)
				for j := range cols {
					cols[j] = blockcg.Column{B: bs[j][rank], Opt: opt}
				}
				results := blockcg.Solve(e, solver, cols)
				for j, r := range results {
					if r.Err != nil {
						return fmt.Errorf("col %d: %w", j, r.Err)
					}
					xParts[j][rank] = r.Res.X
				}
				return nil
			}
			for j := 0; j < k; j++ {
				res, err := solver(e, bs[j][rank], opt)
				if err != nil {
					return fmt.Errorf("col %d: %w", j, err)
				}
				xParts[j][rank] = res.X
			}
			return nil
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("p=%d gang=%v rank %d: %v", p, gang, r, err)
			}
		}
		xs := make([][]float64, k)
		for j := range xs {
			xs[j] = comm.Gather(pt, xParts[j])
		}
		return xs
	}

	for _, p := range []int{1, 4} {
		solo := runComm(p, false)
		got := runComm(p, true)
		for j := 0; j < k; j++ {
			for i := range solo[j] {
				if got[j][i] != solo[j][i] {
					t.Fatalf("p=%d col %d X[%d]: gang %v, solo %v", p, j, i, got[j][i], solo[j][i])
				}
			}
		}
	}
}

// TestGangTracingBitIdentity: attaching a tracer must not change a single
// bit of any column, and the traced gang must actually emit the block
// phases (block_spmv from the batched SPMV, block_gram from the packed
// reductions).
func TestGangTracingBitIdentity(t *testing.T) {
	pr := workload.Poisson125(6)
	const k = 4
	solver := krylov.PCG
	opt := workload.DefaultOptions(pr)
	rhs := distinctRHS(pr, k, 3)

	run := func(traced bool) ([]blockcg.Result, obs.Summary) {
		pc, err := workload.PC("jacobi", pr)
		if err != nil {
			t.Fatal(err)
		}
		base := engine.NewSeq(pr.Operator(), pc)
		if traced {
			base.Tr = obs.New(0)
		}
		cols := make([]blockcg.Column, k)
		for j := range cols {
			cols[j] = blockcg.Column{B: rhs[j], Opt: opt}
		}
		res := blockcg.Solve(base, solver, cols)
		return res, base.Tr.Summary()
	}

	plain, _ := run(false)
	traced, sum := run(true)
	for j := 0; j < k; j++ {
		if plain[j].Err != nil || traced[j].Err != nil {
			t.Fatalf("col %d errors: %v / %v", j, plain[j].Err, traced[j].Err)
		}
		for i := range plain[j].Res.X {
			if plain[j].Res.X[i] != traced[j].Res.X[i] {
				t.Fatalf("tracing changed col %d X[%d]", j, i)
			}
		}
		if d := len(plain[j].Res.History); d != len(traced[j].Res.History) {
			t.Fatalf("tracing changed col %d history length", j)
		}
	}
	if sum.Phases[obs.PhaseBlockSpMV].Count == 0 {
		t.Error("traced gang emitted no block_spmv spans")
	}
	if sum.Phases[obs.PhaseBlockGram].Count == 0 {
		t.Error("traced gang emitted no block_gram spans")
	}
}

// cancelWrap is a serve-style engine wrapper: it embeds the engine it is
// given, so everything is forwarded, and overrides the two product calls to
// panic a typed value once its column has performed enough SPMVs — modeling
// a per-job cancellation firing mid-gang.
type cancelWrap struct {
	engine.Engine
	after int
	n     int
}

type testCancel struct{}

func (c *cancelWrap) poll() {
	c.n++
	if c.n > c.after {
		panic(testCancel{})
	}
}

func (c *cancelWrap) SpMV(dst, src []float64) {
	c.poll()
	c.Engine.SpMV(dst, src)
}

func (c *cancelWrap) SpMVFusedDots(dst, src []float64, scale float64, pc bool, ws [][]float64, dots []float64) {
	c.poll()
	c.Engine.SpMVFusedDots(dst, src, scale, pc, ws, dots)
}

// TestGangColumnCancel: every column runs under the wrapper, as every service
// job does; one is canceled mid-solve via the wrapper's panic, its Recover
// hook translates the panic to an error, and the surviving columns still
// finish bit-identical to their solo solves. The pipe-pscg case runs on a
// problem larger than one par grain, where a wrapper that lost the fused
// SPMV on the way through would fold its dots over other chunks and drift.
func TestGangColumnCancel(t *testing.T) {
	for _, tc := range []struct {
		method string
		pr     workload.Problem
	}{
		{"pcg", workload.Poisson7(8)},
		{"pipe-pscg", workload.Poisson7(20)},
	} {
		t.Run(tc.method, func(t *testing.T) {
			pr, method := tc.pr, tc.method
			if method == "pipe-pscg" && len(pr.B) <= par.Grain() {
				t.Fatalf("%d rows against a par grain of %d", len(pr.B), par.Grain())
			}
			const k = 3
			opt := workload.DefaultOptions(pr)
			opt.S = 3
			rhs := distinctRHS(pr, k, 99)

			solos := make([]*krylov.Result, k)
			soloCs := make([]trace.Counters, k)
			for j := 0; j < k; j++ {
				solos[j], soloCs[j] = soloSeq(t, pr, method, rhs[j], opt)
			}

			solver := solverOf(t, method)
			pc, err := workload.PC("jacobi", pr)
			if err != nil {
				t.Fatal(err)
			}
			base := engine.NewSeq(pr.Operator(), pc)
			errCanceled := errors.New("canceled")
			cols := make([]blockcg.Column, k)
			for j := range cols {
				after := math.MaxInt
				if j == 1 {
					after = 5
				}
				cols[j] = blockcg.Column{B: rhs[j], Opt: opt,
					Wrap: func(e engine.Engine) engine.Engine { return &cancelWrap{Engine: e, after: after} },
					Recover: func(p any) error {
						if _, ok := p.(testCancel); ok {
							return errCanceled
						}
						return nil
					}}
			}
			results := blockcg.Solve(base, solver, cols)
			if !errors.Is(results[1].Err, errCanceled) {
				t.Fatalf("col 1: err = %v, want canceled", results[1].Err)
			}
			for _, j := range []int{0, 2} {
				compareColumn(t, fmt.Sprintf("survivor col %d", j), results[j], solos[j], soloCs[j])
			}
		})
	}
}

// TestGangWidthOne: a width-1 gang is exactly a solo solve.
func TestGangWidthOne(t *testing.T) {
	pr := workload.Poisson125(5)
	opt := workload.DefaultOptions(pr)
	solo, soloC := soloSeq(t, pr, "pscg", pr.B, opt)
	solver := krylov.PSCG
	pc, _ := workload.PC("jacobi", pr)
	base := engine.NewSeq(pr.Operator(), pc)
	res := blockcg.Solve(base, solver, []blockcg.Column{{B: pr.B, Opt: opt}})
	compareColumn(t, "width-1", res[0], solo, soloC)
}

// TestGangEmpty: zero columns is a no-op.
func TestGangEmpty(t *testing.T) {
	pr := workload.Poisson125(4)
	solver := krylov.PCG
	pc, _ := workload.PC("jacobi", pr)
	base := engine.NewSeq(pr.Operator(), pc)
	if got := blockcg.Solve(base, solver, nil); len(got) != 0 {
		t.Fatalf("empty gang returned %d results", len(got))
	}
}
