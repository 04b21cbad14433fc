package krylov

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// chaosRun is the outcome of one SPMD solve under fault injection.
type chaosRun struct {
	results []*Result
	errs    []error
	x       []float64 // gathered solution, nil if any rank failed
	events  int       // summed trace.Counters recovery events
	closeOK error
}

// runChaos executes one solver on the goroutine runtime under the given
// fault scenario, with a hard wall-clock deadline: a hung collective is a
// test failure, never a stuck CI job.
func runChaos(t *testing.T, a *synthProblem, solve Solver, p int,
	fc *comm.FaultConfig, opt Options, deadline time.Duration) chaosRun {
	t.Helper()
	pt := partition.RowBlockByNNZ(a.m, p)
	f := comm.NewFabric(p, 0)
	if fc != nil {
		f = f.WithFault(fc).WithRecvTimeout(5*time.Millisecond, 400)
	}
	engines := comm.NewEngines(f, a.m, pt, jacobiFactory)
	bs := comm.Scatter(pt, a.b)

	run := chaosRun{results: make([]*Result, p)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		run.errs = comm.RunErr(engines, func(r int, e *comm.Engine) error {
			res, err := solve(e, bs[r], opt)
			run.results[r] = res
			return err
		})
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatalf("solver hung past the %v deadline", deadline)
	}

	ok := true
	for r := 0; r < p; r++ {
		if run.errs[r] != nil || run.results[r] == nil {
			ok = false
		}
	}
	if ok {
		xs := make([][]float64, p)
		for r := range xs {
			xs[r] = run.results[r].X
		}
		run.x = comm.Gather(pt, xs)
	}
	for _, e := range engines {
		run.events += e.Counters().RecoveryEvents()
	}
	run.closeOK = f.Close()
	return run
}

// synthProblem bundles a matrix with its b = A·1 right-hand side.
type synthProblem struct {
	m *sparse.CSR
	b []float64
}

// trueRelres recomputes ‖b − A·x‖/‖b‖ from scratch.
func trueRelres(a *sparse.CSR, b, x []float64) float64 {
	r := make([]float64, a.Rows)
	a.MulVec(r, x)
	var rn, bn float64
	for i := range r {
		d := b[i] - r[i]
		rn += d * d
		bn += b[i] * b[i]
	}
	return math.Sqrt(rn / bn)
}

// poisson12 is the small, fast chaos workload.
func poisson12() *synthProblem {
	a := grid.NewSquare(12, grid.Star5).Laplacian()
	return &synthProblem{m: a, b: onesRHS(a)}
}

// TestChaosMatrix sweeps seeded fault scenarios × solvers × rank counts on a
// small Poisson problem. Every cell must either converge (verified against
// the true residual) or return a typed error on some rank — and always
// finish before the deadline. With checksums and resend enabled, the
// comm-level recovery is exact, so convergence is the expected outcome.
func TestChaosMatrix(t *testing.T) {
	pr := poisson12()
	scenarios := []struct {
		name string
		fc   comm.FaultConfig
	}{
		{"drop", comm.FaultConfig{Seed: 2, DropRate: 0.02, StragglerRank: -1}},
		{"dup", comm.FaultConfig{Seed: 3, DupRate: 0.05, StragglerRank: -1}},
		{"corrupt", comm.FaultConfig{Seed: 4, CorruptRate: 0.005, Checksum: true, StragglerRank: -1}},
		{"straggler", comm.FaultConfig{Seed: 5, StragglerRank: 1, StragglerJitter: 200 * time.Microsecond}},
	}
	solvers := []struct {
		name  string
		solve Solver
	}{
		{"pcg", PCG},
		{"pscg", PSCG},
		{"pipe-scg", PIPESCG},
		{"pipe-pscg", PIPEPSCG},
	}
	for _, sc := range scenarios {
		for _, sv := range solvers {
			for _, p := range []int{1, 4, 7} {
				t.Run(fmt.Sprintf("%s/%s/p%d", sc.name, sv.name, p), func(t *testing.T) {
					opt := Defaults()
					opt.RelTol = 1e-6
					opt.MaxIter = 5000
					fc := sc.fc
					run := runChaos(t, pr, sv.solve, p, &fc, opt, 60*time.Second)
					if run.x == nil {
						// Typed-error outcome: every failing rank must carry
						// a recognised error, never a bare panic string.
						for r, err := range run.errs {
							if err == nil {
								continue
							}
							var fe *comm.FaultError
							var le *LadderError
							if !errors.As(err, &fe) && !errors.As(err, &le) {
								t.Fatalf("rank %d: untyped failure: %v", r, err)
							}
							t.Logf("rank %d typed failure: %v", r, err)
						}
						return
					}
					if rel := trueRelres(pr.m, pr.b, run.x); rel > 1e-4 {
						t.Fatalf("converged claim with true residual %g", rel)
					}
				})
			}
		}
	}
}

// TestChaosAcceptance is the PR's headline criterion: PIPE-PsCG on the
// ecology2 stand-in at P=4 under 1% drop + 0.1% corruption (fixed seed,
// checksums on) must converge exactly like the fault-free run — identical
// iteration count, identical residual, bit-identical solution — with a
// nonzero recovery-event count in trace.Counters.
func TestChaosAcceptance(t *testing.T) {
	m := synth.Ecology2(24).A
	pr := &synthProblem{m: m, b: onesRHS(m)}
	opt := Defaults()
	opt.RelTol = 1e-5
	opt.MaxIter = 5000

	clean := runChaos(t, pr, PIPEPSCG, 4, nil, opt, 120*time.Second)
	if clean.x == nil {
		t.Fatalf("fault-free run failed: %v", clean.errs)
	}
	faulty := runChaos(t, pr, PIPEPSCG, 4, &comm.FaultConfig{
		Seed: 1, DropRate: 0.01, CorruptRate: 0.001, Checksum: true, StragglerRank: -1,
	}, opt, 120*time.Second)
	if faulty.x == nil {
		t.Fatalf("faulty run failed: %v", faulty.errs)
	}

	cr, fr := clean.results[0], faulty.results[0]
	if !cr.Converged || !fr.Converged {
		t.Fatalf("both runs must converge: clean=%v faulty=%v", cr.Converged, fr.Converged)
	}
	if cr.Iterations != fr.Iterations || cr.RelRes != fr.RelRes {
		t.Fatalf("faulty run drifted: clean (%d, %g) vs faulty (%d, %g)",
			cr.Iterations, cr.RelRes, fr.Iterations, fr.RelRes)
	}
	for i := range clean.x {
		if clean.x[i] != faulty.x[i] {
			t.Fatalf("x[%d] differs: %g vs %g — checksummed resend should be exact", i, clean.x[i], faulty.x[i])
		}
	}
	if faulty.events == 0 {
		t.Fatal("expected nonzero recovery events under injection")
	}
	if faulty.closeOK != nil {
		t.Fatalf("faulty fabric leaked: %v", faulty.closeOK)
	}
}

// TestChaosBitIdenticalWhenDisabled: arming the deadline/tracking machinery
// without any injected fault must leave every solver's output bit-identical
// to the plain fabric — the zero-fault path is not allowed to perturb
// numerics.
func TestChaosBitIdenticalWhenDisabled(t *testing.T) {
	pr := poisson12()
	opt := Defaults()
	opt.RelTol = 1e-8
	opt.MaxIter = 5000
	for _, sv := range []struct {
		name  string
		solve Solver
	}{
		{"pcg", PCG},
		{"pipe-pscg", PIPEPSCG},
	} {
		t.Run(sv.name, func(t *testing.T) {
			plain := runChaos(t, pr, sv.solve, 4, nil, opt, 60*time.Second)
			tracked := runChaos(t, pr, sv.solve, 4,
				&comm.FaultConfig{StragglerRank: -1}, opt, 60*time.Second)
			if plain.x == nil || tracked.x == nil {
				t.Fatalf("runs failed: %v / %v", plain.errs, tracked.errs)
			}
			if plain.results[0].Iterations != tracked.results[0].Iterations {
				t.Fatal("iteration counts diverged with injection disabled")
			}
			for i := range plain.x {
				if plain.x[i] != tracked.x[i] {
					t.Fatalf("x[%d]: %g vs %g — tracking must not perturb numerics",
						i, plain.x[i], tracked.x[i])
				}
			}
		})
	}
}

// deserter is rank 1's engine in TestFaultDesertedPostedWait: it runs the
// solve until its first posted reduction, then leaves without posting.
type deserter struct{ engine.Engine }

var errDeserted = errors.New("rank deserted")

func (d deserter) IallreduceSum([]float64) engine.Request {
	panic(engine.Abort{Err: errDeserted})
}

// TestFaultDesertedPostedWait: a rank whose peer deserts a posted reduction
// unwinds out of its next wait on the peer — the posted wait itself for
// GROPPCG, whose rank-local PC is all it overlaps — like any engine fault:
// comm.RunErr reports the fabric's typed *FaultError for it and the
// deserter's own Abort error for the peer, and nothing hangs.
func TestFaultDesertedPostedWait(t *testing.T) {
	a := poisson12()
	for _, name := range []string{"groppcg", "pipecg", "pipe-pr-cg", "pipe-pscg"} {
		t.Run(name, func(t *testing.T) {
			m, err := MethodByName(name)
			if err != nil {
				t.Fatal(err)
			}
			pt := partition.RowBlockByNNZ(a.m, 2)
			f := comm.NewFabric(2, 0).WithRecvTimeout(20*time.Millisecond, 3)
			engines := comm.NewEngines(f, a.m, pt, jacobiFactory)
			bs := comm.Scatter(pt, a.b)
			errs := comm.RunErr(engines, func(r int, e *comm.Engine) error {
				var re engine.Engine = e
				if r == 1 {
					re = deserter{e}
				}
				_, err := m.Solve(re, bs[r], Defaults())
				return err
			})
			f.Close()
			var fe *comm.FaultError
			if !errors.As(errs[0], &fe) {
				t.Errorf("rank 0: want a typed *comm.FaultError, got %v", errs[0])
			}
			if !errors.Is(errs[1], errDeserted) {
				t.Errorf("rank 1: want the deserter's error, got %v", errs[1])
			}
			if name == "groppcg" && engines[0].Counters().Iallreduce != 1 {
				t.Errorf("groppcg rank 0 posted %d reductions, want the one it waited on", engines[0].Counters().Iallreduce)
			}
		})
	}
}
