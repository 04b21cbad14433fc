package krylov

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/precond"
	"repro/internal/sparse"
)

// seqJacobi wraps a matrix in the sequential engine with Jacobi.
func seqJacobi(a *sparse.CSR) *engine.Seq {
	return engine.NewSeq(a, precond.NewJacobi(a, 0, a.Rows))
}

// onesRHS returns b = A·1 so the exact solution is the ones vector.
func onesRHS(a *sparse.CSR) []float64 {
	b := make([]float64, a.Rows)
	ones := make([]float64, a.Rows)
	for i := range ones {
		ones[i] = 1
	}
	a.MulVec(b, ones)
	return b
}

// TestLadderConvergesClean: on a well-conditioned problem the ladder's first
// rung converges and no stepdowns are recorded.
func TestLadderConvergesClean(t *testing.T) {
	a := grid.NewSquare(12, grid.Star5).Laplacian()
	b := grid.OnesRHS(a)
	e := seqJacobi(a)
	opt := Defaults()
	opt.RelTol = 1e-8
	res, err := SolveLadder(e, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("ladder must converge on the clean Poisson problem: %+v", res)
	}
	if res.Method != "resilience-ladder" {
		t.Fatalf("method = %q", res.Method)
	}
	if c := e.Counters(); c.LadderStepdowns != 0 {
		t.Fatalf("no stepdown expected on a clean solve, got %d", c.LadderStepdowns)
	}
	for i, v := range res.X {
		if math.Abs(v-1) > 1e-5 {
			t.Fatalf("x[%d] = %g want ≈1", i, v)
		}
	}
}

// TestLadderStepsDownOnIllConditioned: on the heterogeneous ecology2 stand-in
// with an aggressive block size, the pipelined s-step rung stalls above the
// tolerance even with in-solver recovery; the ladder must record at least one
// stepdown and still converge on a lower rung — graceful degradation instead
// of the old hard stop.
func TestLadderStepsDownOnIllConditioned(t *testing.T) {
	a := illConditioned()
	b := onesRHS(a)
	e := seqJacobi(a)
	opt := Defaults()
	opt.S = 6 // monomial basis of depth 6 is too ill-conditioned here
	opt.RelTol = 1e-9
	opt.MaxIter = 200000
	res, err := SolveLadder(e, b, opt)
	if err != nil {
		t.Fatalf("ladder exhausted: %v", err)
	}
	if !res.Converged {
		t.Fatalf("ladder must converge via a lower rung: relres %g", res.RelRes)
	}
	c := e.Counters()
	if c.LadderStepdowns < 1 {
		t.Fatalf("expected at least one stepdown, counters: %+v", *c)
	}
	if c.Recoveries < 1 {
		t.Fatalf("stepdowns must be recorded as recovery events, counters: %+v", *c)
	}
}

// TestRecoverPolicyTerminates: with the in-solver recovery policy enabled and
// an unattainable tolerance, PIPE-PsCG must still terminate (progress-gated
// recoveries, bounded count) rather than restart forever — and hand back the
// best iterate.
func TestRecoverPolicyTerminates(t *testing.T) {
	a := illConditioned()
	b := onesRHS(a)
	e := seqJacobi(a)
	opt := Defaults()
	opt.S = 6
	opt.RelTol = 1e-14 // unattainable
	opt.MaxIter = 50000
	opt.recover = true

	type out struct {
		res *Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := PIPEPSCG(e, b, opt)
		ch <- out{res, err}
	}()
	var o out
	select {
	case o = <-ch:
	case <-time.After(120 * time.Second):
		t.Fatal("recovery policy failed to terminate")
	}
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.res.Converged {
		t.Skip("problem unexpectedly reached 1e-14")
	}
	c := e.Counters()
	if c.Recoveries == 0 || c.ResidualReplacements == 0 {
		t.Fatalf("recovery policy never fired, counters: %+v", *c)
	}
	if o.res.RelRes > 1 {
		t.Fatalf("best-iterate restore failed: relres %g", o.res.RelRes)
	}
}

// TestLadderTypedError: when every rung is exhausted the ladder returns a
// typed *LadderError carrying the best merged result — never a silent wrong
// answer and never a hang.
func TestLadderTypedError(t *testing.T) {
	a := illConditioned()
	b := onesRHS(a)
	e := seqJacobi(a)
	opt := Defaults()
	opt.S = 6
	opt.RelTol = 0 // unattainable by construction: the walk must exhaust
	opt.MaxIter = 2000
	res, err := SolveLadder(e, b, opt)
	if err == nil {
		t.Fatal("ladder cannot converge to rtol 0")
	}
	var le *LadderError
	if !errors.As(err, &le) {
		t.Fatalf("want *LadderError, got %T: %v", err, err)
	}
	if le.Result == nil || le.Result != res {
		t.Fatal("LadderError must carry the merged result")
	}
	if res.Converged {
		t.Fatal("exhausted ladder cannot be marked converged")
	}
	if math.IsNaN(res.RelRes) || res.RelRes > 1 {
		t.Fatalf("best merged iterate lost: relres %g", res.RelRes)
	}
	if e.Counters().LadderStepdowns < 2 {
		t.Fatalf("full walk should record 2 stepdowns, got %d", e.Counters().LadderStepdowns)
	}
}
