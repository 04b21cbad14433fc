package krylov

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/grid"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// escalationProblem is one system the escalation goldens solve, Jacobi
// preconditioned, b = A·1.
type escalationProblem struct {
	a       *sparse.CSR
	s       int
	rtol    float64
	maxIter int
}

// escalationProblems: "ill-s6" is TestLadderStepsDownOnIllConditioned's
// case (the s = 6 rung stalls, the ladder steps down); "ill" is
// the same operator at s = 4, where PIPE-PsCG's stagnation detector fires
// near relres 3e-4 and Hybrid hands over to PIPECG-OATI, which finishes;
// "clean" converges on the first rung; "exhaust" (TestLadderTypedError's
// case) asks for rtol 0, so the budget runs out and the ladder returns its
// *LadderError.
var escalationProblems = map[string]func() escalationProblem{
	"ill-s6": func() escalationProblem { return escalationProblem{illConditioned(), 6, 1e-9, 200000} },
	"ill":    func() escalationProblem { return escalationProblem{illConditioned(), 4, 1e-8, 100000} },
	"clean": func() escalationProblem {
		return escalationProblem{grid.NewSquare(12, grid.Star5).Laplacian(), 3, 1e-8, 100000}
	},
	"exhaust": func() escalationProblem { return escalationProblem{illConditioned(), 6, 0, 2000} },
}

// escalationGoldens pins SolveLadder and Hybrid on each problem: iteration
// and outer counts, the stop flags, the recorded stepdowns, and an FNV-64a
// digest of the iterate's bits and the merged history.
var escalationGoldens = []struct {
	method, problem   string
	iters, outer      int
	conv, stag, broke bool
	stepdowns         int
	digest            uint64
}{
	{"ladder", "ill-s6", 320, 160, true, false, false, 1, 0x4d68751ee59c714},
	{"ladder", "ill", 277, 151, true, false, false, 1, 0x17fe8f8cf4132289},
	{"ladder", "clean", 21, 7, true, false, false, 0, 0xb6d4a9d59cbe9d58},
	{"ladder", "exhaust", 2000, 1840, false, false, false, 2, 0x84c2c468e25e6e77},
	{"hybrid", "ill-s6", 278, 91, true, false, false, 1, 0x4fe5c9fb52bd72a},
	{"hybrid", "ill", 224, 89, true, false, false, 1, 0xd027571fa08dd182},
	{"hybrid", "clean", 21, 7, true, false, false, 0, 0xb6d4a9d59cbe9d58},
	{"hybrid", "exhaust", 2000, 1647, false, false, false, 2, 0x7d835390c374bd52},
}

// escalationRow renders one run in the table's field order.
func escalationRow(res *Result, stepdowns int) string {
	h := fnv.New64a()
	var w [8]byte
	put := func(u uint64) {
		for k := range w {
			w[k] = byte(u >> (8 * k))
		}
		h.Write(w[:])
	}
	for _, v := range res.X {
		put(math.Float64bits(v))
	}
	for _, hp := range res.History {
		put(uint64(hp.Iteration))
		put(math.Float64bits(hp.RelRes))
		put(uint64(hp.ReduceIndex))
	}
	return fmt.Sprintf("%d, %d, %v, %v, %v, %d, %#x",
		res.Iterations, res.Outer, res.Converged, res.Stagnated, res.BrokeDown, stepdowns, h.Sum64())
}

// expected accepts a nil error, and a *LadderError carrying the result.
func expected(res *Result, err error) bool {
	var le *LadderError
	return err == nil || errors.As(err, &le) && le.Result == res
}

// TestEscalationGoldens runs every pinned case on the sequential engine and
// on the goroutine runtime at P = 1, which must agree bit for bit, and
// compares both with the pin.
func TestEscalationGoldens(t *testing.T) {
	solvers := map[string]Solver{"ladder": SolveLadder, "hybrid": Hybrid}
	for _, g := range escalationGoldens {
		pr := escalationProblems[g.problem]()
		b := onesRHS(pr.a)
		opt := Defaults()
		opt.S, opt.RelTol, opt.MaxIter = pr.s, pr.rtol, pr.maxIter
		solve := solvers[g.method]

		e := seqJacobi(pr.a)
		res, err := solve(e, b, opt)
		if !expected(res, err) {
			t.Fatalf("%s/%s: %v", g.method, g.problem, err)
		}
		seq := escalationRow(res, e.Counters().LadderStepdowns)

		f := comm.NewFabric(1, 0)
		engines := comm.NewEngines(f, pr.a, partition.RowBlockByNNZ(pr.a, 1), jacobiFactory)
		var cres *Result
		errs := comm.RunErr(engines, func(_ int, ce *comm.Engine) error {
			var err error
			cres, err = solve(ce, b, opt)
			return err
		})
		if !expected(cres, errs[0]) {
			t.Fatalf("%s/%s comm P=1: %v", g.method, g.problem, errs[0])
		}
		if err := f.Close(); err != nil {
			t.Fatalf("%s/%s comm P=1: %v", g.method, g.problem, err)
		}
		cp1 := escalationRow(cres, engines[0].Counters().LadderStepdowns)
		if cp1 != seq {
			t.Errorf("%s/%s: comm P=1 {%s} differs from seq {%s}", g.method, g.problem, cp1, seq)
		}

		want := fmt.Sprintf("%d, %d, %v, %v, %v, %d, %#x",
			g.iters, g.outer, g.conv, g.stag, g.broke, g.stepdowns, g.digest)
		if seq != want {
			t.Errorf("{%q, %q, %s},", g.method, g.problem, seq)
		}
	}
}
