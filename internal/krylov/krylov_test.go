package krylov

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/vec"
)

func testProblem(t *testing.T) (*sparse.CSR, []float64) {
	t.Helper()
	g := grid.NewSquare(14, grid.Star5)
	a := g.Laplacian()
	return a, grid.OnesRHS(a)
}

// residualNorm computes ‖b - A·x‖ / ‖b‖ from scratch.
func residualNorm(a *sparse.CSR, x, b []float64) float64 {
	r := make([]float64, a.Rows)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return vec.Norm2(r) / vec.Norm2(b)
}

func TestAllSolversConvergeJacobi(t *testing.T) {
	a, b := testProblem(t)
	for _, m := range Methods {
		t.Run(m.Name, func(t *testing.T) {
			e := engine.NewSeq(a, precond.NewJacobi(a, 0, a.Rows))
			opt := Defaults()
			opt.RelTol = 1e-8
			res, err := m.Solve(e, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("did not converge: %+v iterations=%d relres=%g", res.Method, res.Iterations, res.RelRes)
			}
			// The true solution is the ones vector.
			for i, v := range res.X {
				if math.Abs(v-1) > 1e-5 {
					t.Fatalf("x[%d] = %g, want ≈1", i, v)
				}
			}
			if rr := residualNorm(a, res.X, b); rr > 1e-6 {
				t.Fatalf("true relative residual %g too large", rr)
			}
			if res.Iterations <= 0 || len(res.History) == 0 {
				t.Fatal("missing iteration accounting")
			}
		})
	}
}

func TestUnpreconditionedSolvers(t *testing.T) {
	a, b := testProblem(t)
	for _, m := range Methods {
		if !m.Unpreconditioned {
			continue
		}
		t.Run(m.Name, func(t *testing.T) {
			e := engine.NewSeq(a, nil)
			opt := Defaults()
			opt.RelTol = 1e-8
			opt.Norm = NormUnpreconditioned
			res, err := m.Solve(e, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("%s did not converge (relres %g)", m.Name, res.RelRes)
			}
			if e.Counters().PCApply != 0 {
				t.Fatalf("%s must not apply a preconditioner (got %d)", m.Name, e.Counters().PCApply)
			}
			if rr := residualNorm(a, res.X, b); rr > 1e-6 {
				t.Fatalf("true relres %g", rr)
			}
		})
	}
}

// The s-step methods must reproduce exact CG iterates: after k outer
// iterations (= k·s CG steps) the iterate equals plain CG's iterate at the
// same step count, up to rounding.
func TestSStepMatchesCGIterates(t *testing.T) {
	g := grid.NewSquare(8, grid.Star5)
	a := g.Laplacian()
	b := grid.OnesRHS(a)

	run := func(solve Solver, iters int, pc engine.Preconditioner) []float64 {
		e := engine.NewSeq(a, pc)
		opt := Defaults()
		opt.RelTol = 0 // never converge; run exactly iters steps
		opt.AbsTol = 0
		opt.MaxIter = iters
		opt.S = 3
		res, err := solve(e, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != iters {
			t.Fatalf("expected %d iterations, ran %d", iters, res.Iterations)
		}
		return res.X
	}

	const steps = 9 // three outer iterations at s=3
	jac := func() engine.Preconditioner { return precond.NewJacobi(a, 0, a.Rows) }

	xcg := run(PCG, steps, jac())
	for _, tc := range []struct {
		name  string
		solve Solver
		pc    bool
	}{
		{"scg", SCG, false},
		{"scg-s", SCGS, false},
		{"pipe-scg", PIPESCG, false},
		{"pscg", PSCG, true},
		{"pipe-pscg", PIPEPSCG, true},
	} {
		var ref []float64
		var pc engine.Preconditioner
		if tc.pc {
			ref = xcg
			pc = jac()
		} else {
			ref = run(PCG, steps, nil)
		}
		x := run(tc.solve, steps, pc)
		var diff, scale float64
		for i := range x {
			diff += (x[i] - ref[i]) * (x[i] - ref[i])
			scale += ref[i] * ref[i]
		}
		rel := math.Sqrt(diff / scale)
		if rel > 1e-8 {
			t.Errorf("%s deviates from CG after %d steps: rel diff %g", tc.name, steps, rel)
		}
	}
}

// Kernel counts per outer iteration must match Table I.
func TestKernelCountsMatchTableI(t *testing.T) {
	a, b := testProblem(t)
	s := 3
	type want struct {
		solve                  Solver
		pc                     bool
		spmv, pcap, allr, iall int // per outer iteration
	}
	cases := map[string]want{
		"pcg":       {PCG, true, 1, 1, 3, 0},
		"pipecg":    {PIPECG, true, 1, 1, 0, 1},
		"scg":       {SCG, false, s + 1, 0, 1, 0},
		"pscg":      {PSCG, true, s + 1, s + 1, 1, 0},
		"scg-s":     {SCGS, false, s, 0, 1, 0},
		"pipe-scg":  {PIPESCG, false, s, 0, 0, 1},
		"pipe-pscg": {PIPEPSCG, true, s, s, 0, 1},
	}
	for name, w := range cases {
		t.Run(name, func(t *testing.T) {
			var pc engine.Preconditioner
			if w.pc {
				pc = precond.NewJacobi(a, 0, a.Rows)
			}
			e := engine.NewSeq(a, pc)
			opt := Defaults()
			opt.S = s
			opt.RelTol = 0
			opt.AbsTol = 0
			// Run enough for 6 outer iterations of any method.
			opt.MaxIter = 6 * s
			res, err := w.solve(e, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			c := e.Counters()
			outers := res.Outer
			if outers < 3 {
				t.Fatalf("too few outer iterations: %d", outers)
			}
			// Subtract a generous setup allowance by comparing two run
			// lengths instead: rerun with half the iterations and diff.
			e2 := engine.NewSeq(a, pc)
			if w.pc {
				e2 = engine.NewSeq(a, precond.NewJacobi(a, 0, a.Rows))
			}
			opt2 := opt
			opt2.MaxIter = opt.MaxIter / 2
			res2, err := w.solve(e2, b, opt2)
			if err != nil {
				t.Fatal(err)
			}
			c2 := e2.Counters()
			dOut := outers - res2.Outer
			if dOut <= 0 {
				t.Fatalf("no outer delta")
			}
			check := func(what string, got, per int) {
				if got != per*dOut {
					t.Errorf("%s: %d over %d outers, want %d per outer", what, got, dOut, per)
				}
			}
			check("spmv", c.SpMV-c2.SpMV, w.spmv)
			check("pc", c.PCApply-c2.PCApply, w.pcap)
			check("allreduce", c.Allreduce-c2.Allreduce, w.allr)
			check("iallreduce", c.Iallreduce-c2.Iallreduce, w.iall)
		})
	}
}

func TestNormModes(t *testing.T) {
	a, b := testProblem(t)
	for _, mode := range []NormMode{NormPreconditioned, NormUnpreconditioned, NormNatural} {
		e := engine.NewSeq(a, precond.NewJacobi(a, 0, a.Rows))
		opt := Defaults()
		opt.Norm = mode
		opt.RelTol = 1e-7
		res, err := PIPEPSCG(e, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("mode %v did not converge", mode)
		}
		if rr := residualNorm(a, res.X, b); rr > 1e-5 {
			t.Fatalf("mode %v: true relres %g", mode, rr)
		}
	}
	if NormNatural.String() != "natural" || NormMode(99).String() != "unknown" {
		t.Fatal("NormMode.String broken")
	}
}

func TestSSensitivityConvergence(t *testing.T) {
	a, b := testProblem(t)
	for _, s := range []int{1, 2, 3, 4, 5} {
		e := engine.NewSeq(a, precond.NewJacobi(a, 0, a.Rows))
		opt := Defaults()
		opt.S = s
		opt.RelTol = 1e-7
		res, err := PIPEPSCG(e, b, opt)
		if err != nil {
			t.Fatalf("s=%d: %v", s, err)
		}
		if !res.Converged {
			t.Fatalf("s=%d did not converge (relres %g)", s, res.RelRes)
		}
	}
}

func TestInvalidSRejected(t *testing.T) {
	a, b := testProblem(t)
	e := engine.NewSeq(a, nil)
	opt := Defaults()
	opt.S = 0
	if _, err := PIPESCG(e, b, opt); err == nil {
		t.Fatal("expected error for S=0")
	}
}

func TestInitialGuessRespected(t *testing.T) {
	a, b := testProblem(t)
	x0 := make([]float64, a.Rows)
	for i := range x0 {
		x0[i] = 1 // exact solution
	}
	e := engine.NewSeq(a, precond.NewJacobi(a, 0, a.Rows))
	opt := Defaults()
	opt.X0 = x0
	res, err := PIPEPSCG(e, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("exact initial guess should converge immediately, ran %d", res.Iterations)
	}
}

func TestMaxIterStopsUnconverged(t *testing.T) {
	a, b := testProblem(t)
	e := engine.NewSeq(a, nil)
	opt := Defaults()
	opt.RelTol = 1e-14
	opt.MaxIter = 3
	res, err := PCG(e, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Iterations != 3 {
		t.Fatalf("expected 3 unconverged iterations, got %d (conv=%v)", res.Iterations, res.Converged)
	}
}

func TestHistoryMonotoneOverall(t *testing.T) {
	a, b := testProblem(t)
	e := engine.NewSeq(a, precond.NewJacobi(a, 0, a.Rows))
	res, err := PIPEPSCG(e, b, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.History[0].RelRes, res.History[len(res.History)-1].RelRes
	if last >= first {
		t.Fatalf("residual did not decrease: %g → %g", first, last)
	}
}

func TestStagnationDetection(t *testing.T) {
	// An artificial monitor exercise: stagnating sequence triggers the
	// detector, improving sequence does not.
	m := &monitor{rtol: 1e-12, bnorm: 1, window: 4, factor: 0.999}
	stopped := false
	for i := 0; i < 20; i++ {
		if stop, conv := m.check(0.5, i); stop {
			if conv {
				t.Fatal("flat residual must not 'converge'")
			}
			stopped = true
			break
		}
	}
	if !stopped || !m.stagnat {
		t.Fatal("stagnation not detected")
	}

	m2 := &monitor{rtol: 1e-12, bnorm: 1, window: 4, factor: 0.999}
	for i := 0; i < 20; i++ {
		if stop, _ := m2.check(math.Pow(0.5, float64(i)), i); stop {
			t.Fatal("improving residual must not stop")
		}
	}
}

func TestMonitorNaNStops(t *testing.T) {
	m := &monitor{rtol: 1e-5, bnorm: 1}
	stop, conv := m.check(math.NaN(), 0)
	if !stop || conv {
		t.Fatal("NaN must stop without converging")
	}
}

func TestHybridMergesHistory(t *testing.T) {
	a, b := testProblem(t)
	e := engine.NewSeq(a, precond.NewJacobi(a, 0, a.Rows))
	opt := Defaults()
	opt.RelTol = 1e-8
	res, err := Hybrid(e, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("hybrid did not converge")
	}
	if res.Method != "hybrid-pipelined" {
		t.Fatalf("method = %q", res.Method)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i].Iteration < res.History[i-1].Iteration {
			t.Fatal("history iterations not monotone")
		}
	}
}
