package krylov

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// illConditioned builds a small heterogeneous conductance Laplacian on which
// the pipelined s-step recurrences hit their accuracy floor before 1e-5 —
// the ecology2 behaviour of the paper's §VI-B.
func illConditioned() *sparse.CSR {
	return synth.Ecology2(24).A // ≈41×41 heterogeneous grid
}

func TestDivergenceGuardStopsSStep(t *testing.T) {
	a := illConditioned()
	b := make([]float64, a.Rows)
	av := make([]float64, a.Rows)
	for i := range av {
		av[i] = 1
	}
	a.MulVec(b, av)

	e := engine.NewSeq(a, precond.NewJacobi(a, 0, a.Rows))
	opt := Defaults()
	opt.RelTol = 1e-12 // unattainable for the s-step recurrences
	opt.MaxIter = 50000
	res, err := PIPEPSCG(e, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Skip("problem too easy for the divergence test on this instance")
	}
	if !res.Diverged && !res.BrokeDown && !res.Stagnated {
		t.Fatalf("expected a guarded stop, got %+v", res)
	}
	// The guard must stop the run long before the residual explodes, and
	// hand back the best iterate seen.
	if res.RelRes > 1 {
		t.Fatalf("best-iterate restore failed: relres %g", res.RelRes)
	}
	// The returned X must actually produce that residual (within slack).
	r := make([]float64, a.Rows)
	a.MulVec(r, res.X)
	var rn, bn float64
	for i := range r {
		d := b[i] - r[i]
		rn += d * d
		bn += b[i] * b[i]
	}
	trueRel := math.Sqrt(rn / bn)
	if trueRel > 100*res.RelRes+1e-10 {
		t.Fatalf("restored iterate inconsistent: reported %g, true %g", res.RelRes, trueRel)
	}
}

func TestHybridFinishesWhereSStepStalls(t *testing.T) {
	a := illConditioned()
	b := make([]float64, a.Rows)
	ones := make([]float64, a.Rows)
	for i := range ones {
		ones[i] = 1
	}
	a.MulVec(b, ones)

	e := engine.NewSeq(a, precond.NewJacobi(a, 0, a.Rows))
	opt := Defaults()
	opt.RelTol = 1e-7
	opt.MaxIter = 100000
	res, err := Hybrid(e, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("hybrid must converge at 1e-7 (got relres %g, stag=%v div=%v broke=%v)",
			res.RelRes, res.Stagnated, res.Diverged, res.BrokeDown)
	}
	for i, v := range res.X {
		if math.Abs(v-1) > 1e-3 {
			t.Fatalf("x[%d] = %g want ≈1", i, v)
		}
	}
}

func TestMonitorDivergenceGuard(t *testing.T) {
	m := &monitor{rtol: 1e-12, bnorm: 1}
	if stop, _ := m.check(1e-3, 0); stop {
		t.Fatal("should not stop on first sample")
	}
	if stop, _ := m.check(1e-4, 1); stop {
		t.Fatal("improving must continue")
	}
	// Growth within the tolerance band is allowed…
	if stop, _ := m.check(1e-2, 2); stop {
		t.Fatal("mild growth must not trip the guard")
	}
	// …but explosive growth is not.
	stop, conv := m.check(10, 3)
	if !stop || conv || !m.diverged {
		t.Fatal("explosive growth must trip the divergence guard")
	}
}

// Property: every solver agrees with a direct solve on small random SPD
// diagonally dominant systems.
func TestQuickSolversMatchDirectSolve(t *testing.T) {
	solvers := []Solver{PCG, PIPECG, SCGS, PIPEPSCG, Hybrid}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(20)
		bld := sparse.NewBuilder(n, n)
		deg := make([]float64, n)
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				j := rng.Intn(n)
				if j == i {
					continue
				}
				w := 0.1 + rng.Float64()
				bld.Add(i, j, -w)
				bld.Add(j, i, -w)
				deg[i] += w
				deg[j] += w
			}
		}
		for i := 0; i < n; i++ {
			bld.Add(i, i, deg[i]+1+rng.Float64())
		}
		a := bld.Build()
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(b, xTrue)

		for _, solve := range solvers {
			e := engine.NewSeq(a, precond.NewJacobi(a, 0, a.Rows))
			opt := Defaults()
			opt.RelTol = 1e-10
			opt.S = 2
			res, err := solve(e, b, opt)
			if err != nil || !res.Converged {
				return false
			}
			for i := range res.X {
				if math.Abs(res.X[i]-xTrue[i]) > 1e-6*(1+math.Abs(xTrue[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Failure injection: a preconditioner that returns garbage after a while
// must trip the guards rather than hang or return success.
type faultyPC struct {
	good    engine.Preconditioner
	applies int
	failAt  int
}

func (f *faultyPC) Apply(dst, src []float64) {
	f.applies++
	if f.applies >= f.failAt {
		for i := range dst {
			dst[i] = math.NaN()
		}
		return
	}
	f.good.Apply(dst, src)
}
func (f *faultyPC) Name() string { return "faulty" }
func (f *faultyPC) WorkPerApply() (float64, float64, int, int) {
	return f.good.WorkPerApply()
}

func TestFaultInjectionNaNPreconditioner(t *testing.T) {
	a := illConditioned()
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	for _, tc := range []struct {
		name  string
		solve Solver
	}{{"pcg", PCG}, {"pipecg", PIPECG}, {"pipe-pscg", PIPEPSCG}} {
		pc := &faultyPC{good: precond.NewJacobi(a, 0, a.Rows), failAt: 12}
		e := engine.NewSeq(a, pc)
		opt := Defaults()
		opt.MaxIter = 2000
		res, err := tc.solve(e, b, opt)
		if err != nil {
			continue // an explicit error is an acceptable outcome
		}
		if res.Converged {
			t.Fatalf("%s: must not report success with a NaN preconditioner", tc.name)
		}
		if res.Iterations > 300 {
			t.Fatalf("%s: guards should stop quickly, ran %d iterations", tc.name, res.Iterations)
		}
	}
}

// TestNonFiniteResidualFlagsDiverged: a right-hand side with a NaN entry
// makes the first checked residual non-finite, and every method must report
// that stop as a divergence — the flag the service, LadderError and the
// audit's non-finite-history invariant read. The ladder alone also returns
// its *LadderError.
func TestNonFiniteResidualFlagsDiverged(t *testing.T) {
	a, b := testProblem(t)
	b = append([]float64(nil), b...)
	b[len(b)/2] = math.NaN()
	for _, m := range Methods {
		t.Run(m.Name, func(t *testing.T) {
			e := engine.NewSeq(a, precond.NewJacobi(a, 0, a.Rows))
			res, err := m.Solve(e, b, Defaults())
			var le *LadderError
			if err != nil && !(m.Name == "ladder" && errors.As(err, &le)) {
				t.Fatal(err)
			}
			if res.Converged || !res.Diverged {
				t.Fatalf("converged=%v diverged=%v, want false, true", res.Converged, res.Diverged)
			}
		})
	}
}
