package workload

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// opaquePC hides a preconditioner's engine.DiagonalPC capability, so the same
// Jacobi drives the preconditioned s-step solvers down their twin-space path
// (r- and u-space vectors, each carried by its own recurrences): the
// reference the one-space path is judged against.
type opaquePC struct{ engine.Preconditioner }

// foldSpec is one runtime of the differential: seq, sim, or comm at ranks.
type foldSpec struct {
	kind  string
	ranks int
}

func (s foldSpec) String() string {
	if s.kind == "comm" {
		return fmt.Sprintf("comm P=%d", s.ranks)
	}
	return s.kind
}

// unfolded hides the engine's M⁻¹ fold: a folded SpMVFusedDots becomes the
// product into a scratch vector and ApplyPC, a folded powers block keeps its
// products in scratch levels — the two-pass sequence the fold replaces.
type unfolded struct {
	engine.Engine
	r [][]float64
}

func (u *unfolded) scratch(k int) [][]float64 {
	for len(u.r) < k {
		u.r = append(u.r, make([]float64, u.NLocal()))
	}
	return u.r[:k]
}

func (u *unfolded) SpMVFusedDots(dst, src []float64, scale float64, pc bool, ws [][]float64, dots []float64) {
	if !pc {
		u.Engine.SpMVFusedDots(dst, src, scale, false, ws, dots)
		return
	}
	r := u.scratch(1)[0]
	u.Engine.SpMVFusedDots(r, src, scale, false, ws, dots)
	u.ApplyPC(dst, r)
}

func (u *unfolded) SpMVPowers(dstR, dstU [][]float64, src []float64, scale float64) bool {
	if dstR == nil {
		dstR = u.scratch(len(dstU))
	}
	return u.Engine.SpMVPowers(dstR, dstU, src, scale)
}

// foldSolve runs one solve of pr with Jacobi, in one space or — twin set —
// behind opaquePC, and returns the result with the gathered iterate. A
// non-nil wrap wraps every rank's engine.
func foldSolve(t *testing.T, pr Problem, meth krylov.Method, opt krylov.Options, spec foldSpec, twin bool) *krylov.Result {
	t.Helper()
	res, _ := wrappedSolve(t, pr, meth, opt, spec, twin, nil)
	return res
}

// wrappedSolve is foldSolve with every rank's engine passed through wrap
// (nil for none); it also returns rank 0's counters.
func wrappedSolve(t *testing.T, pr Problem, meth krylov.Method, opt krylov.Options, spec foldSpec, twin bool,
	wrap func(engine.Engine) engine.Engine) (*krylov.Result, trace.Counters) {
	t.Helper()
	if wrap == nil {
		wrap = func(e engine.Engine) engine.Engine { return e }
	}
	pcf := func(a *sparse.CSR, lo, hi int) engine.Preconditioner {
		var pc engine.Preconditioner = precond.NewJacobi(a, lo, hi)
		if twin {
			pc = opaquePC{pc}
		}
		return pc
	}
	var e engine.Engine
	switch spec.kind {
	case "seq":
		e = engine.NewSeq(pr.Operator(), pcf(pr.A, 0, pr.A.Rows))
	case "sim":
		pc := pcf(pr.A, 0, pr.A.Rows)
		e = sim.Record(engine.NewSeq(pr.Operator(), pc), pr.A, pc)
	default:
		pt := partition.RowBlockByNNZ(pr.A, spec.ranks)
		f := comm.NewFabric(spec.ranks, 0)
		engines := comm.NewEnginesOp(f, pr.A, pr.Operator(), pt, pcf)
		bs := comm.Scatter(pt, pr.B)
		results := make([]*krylov.Result, spec.ranks)
		errs := comm.RunErr(engines, func(r int, e *comm.Engine) error {
			res, err := meth.Solve(wrap(e), bs[r], opt)
			results[r] = res
			return err
		})
		if err := f.Close(); err != nil {
			t.Fatalf("%s: fabric close: %v", spec, err)
		}
		xs := make([][]float64, spec.ranks)
		for r, err := range errs {
			if err != nil {
				t.Fatalf("%s rank %d: %v", spec, r, err)
			}
			xs[r] = results[r].X
		}
		res := *results[0]
		res.X = comm.Gather(pt, xs)
		return &res, *engines[0].Counters()
	}
	res, err := meth.Solve(wrap(e), pr.B, opt)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	return res, *e.Counters()
}

func sameRun(a, b *krylov.Result) bool {
	if a.Iterations != b.Iterations || len(a.History) != len(b.History) {
		return false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	for i, h := range a.History {
		if math.Float64bits(h.RelRes) != math.Float64bits(b.History[i].RelRes) {
			return false
		}
	}
	return true
}

// TestOneSpaceMatchesTwinSpace is the differential test of the one-space
// fold: over the catalogue × s ∈ 1..6 × {seq, sim, comm P=1, 2, 3}, PSCG and
// PIPE-PsCG under Jacobi in one space against the same Jacobi hidden behind
// opaquePC. One-space runs on seq, sim and comm P=1 are bit-identical, and
// one space converges wherever twin space did on the same runtime. Then:
//
//   - s ≤ 3, the unscaled basis the paper runs: one space ends within one
//     outer iteration of twin space on the same runtime, and its true
//     relative residual meets the requested tolerance.
//   - s ≥ 4, the σ-scaled monomial basis, whose attainable accuracy sits at
//     the tolerance on the irregular stand-ins and whose iteration count twin
//     space itself does not keep under rounding — re-associating its
//     reductions across rank counts moves it by up to 4.6× (60 vs 276 on the
//     7-point 20³ Poisson at s=6): the audit's cross-P outcome tier, i.e.
//     at most twice the outer iterations of the slowest twin-space runtime
//     and a true residual within 50× the tolerance.
func TestOneSpaceMatchesTwinSpace(t *testing.T) {
	const iterRatio, residFactor = 2, 50 // the audit's cross-P policy
	problems := []Problem{Poisson7(12), Poisson125(8), Poisson5(24), Ecology2(64), Thermal2(64), Serena(12)}
	specs := []foldSpec{{"seq", 1}, {"sim", 1}, {"comm", 1}, {"comm", 2}, {"comm", 3}}
	for _, pr := range problems {
		for _, name := range []string{"pscg", "pipe-pscg"} {
			meth, err := krylov.MethodByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for s := 1; s <= 6; s++ {
				opt := DefaultOptions(pr)
				opt.S = s
				opt.MaxIter = 2000
				opt.Norm = krylov.NormUnpreconditioned
				ones := make([]*krylov.Result, len(specs))
				twins := make([]*krylov.Result, len(specs))
				slowest := 0
				for i, spec := range specs {
					ones[i] = foldSolve(t, pr, meth, opt, spec, false)
					twins[i] = foldSolve(t, pr, meth, opt, spec, true)
					slowest = max(slowest, twins[i].Outer)
				}
				for i, spec := range specs {
					id := fmt.Sprintf("%s/%s/s=%d/%s", pr.Name, name, s, spec)
					one, twin := ones[i], twins[i]
					if (spec.kind != "comm" || spec.ranks == 1) && !sameRun(one, ones[0]) {
						t.Errorf("%s: one-space run differs in bits from seq", id)
					}
					if !twin.Converged {
						continue
					}
					if !one.Converged {
						t.Errorf("%s: twin space converged, one space did not", id)
						continue
					}
					tol, d := opt.RelTol, one.Outer-twin.Outer
					if s >= 4 {
						tol = residFactor * opt.RelTol
					}
					if s <= 3 && (d < -1 || d > 1) || s >= 4 && one.Outer > iterRatio*slowest {
						t.Errorf("%s: %d outer iterations in one space, %d in twin space (slowest runtime %d)",
							id, one.Outer, twin.Outer, slowest)
					}
					if rel := TrueResidual(pr.A, pr.B, one.X); !(rel <= tol) {
						t.Errorf("%s: true relres %.3e above %g", id, rel, tol)
					}
				}
			}
		}
	}
}

// TestFoldedPowersMatchUnfolded: folding M⁻¹ into each basis vector's
// product (one pass instead of the product's pass plus ApplyPC's) changes no
// bit and no counter. Over the catalogue × s ∈ 1..6 × {seq, sim, comm P=1,
// 2, 3}, PSCG and PIPE-PsCG under Jacobi in one space equal, to the bit, the
// same solves with the fold hidden behind unfolded — iterate, residual
// history, iteration count and rank 0's counters.
func TestFoldedPowersMatchUnfolded(t *testing.T) {
	problems := []Problem{Poisson7(12), Poisson125(8), Poisson5(24), Ecology2(64), Thermal2(64), Serena(12)}
	specs := []foldSpec{{"seq", 1}, {"sim", 1}, {"comm", 1}, {"comm", 2}, {"comm", 3}}
	hide := func(e engine.Engine) engine.Engine { return &unfolded{Engine: e} }
	for _, pr := range problems {
		for _, name := range []string{"pscg", "pipe-pscg"} {
			meth, err := krylov.MethodByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for s := 1; s <= 6; s++ {
				opt := DefaultOptions(pr)
				opt.S = s
				opt.MaxIter = 2000
				for _, spec := range specs {
					id := fmt.Sprintf("%s/%s/s=%d/%s", pr.Name, name, s, spec)
					folded, fc := wrappedSolve(t, pr, meth, opt, spec, false, nil)
					ref, rc := wrappedSolve(t, pr, meth, opt, spec, false, hide)
					if !sameRun(folded, ref) || folded.Outer != ref.Outer || folded.Converged != ref.Converged {
						t.Errorf("%s: folded run differs in bits from the unfolded one", id)
					}
					if fc != rc {
						t.Errorf("%s: counters differ:\n%+v\n%+v", id, fc, rc)
					}
				}
			}
		}
	}
}
