package krylov

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// perProduct hides a comm engine's matrix powers capability behind one that
// always declines: the per-product path the kernel must be bit-identical to.
type perProduct struct{ *comm.Engine }

func (perProduct) SpMVPowers(_, _ [][]float64, _ []float64, _ float64) bool { return false }

// powersRun is what one comm solve leaves behind, per rank.
type powersRun struct {
	results  []*Result
	counters []sstepCounters
	halos    int // rank 0's halo exchanges
}

// sstepCounters is trace.Counters with the two fields the kernel is allowed
// to move split off (zeroed in rest).
type sstepCounters struct {
	rest      trace.Counters
	spmvFlops float64
}

func runPowers(t *testing.T, a *sparse.CSR, op engine.Operator, pt partition.Partition,
	pcf comm.PCFactory, solve Solver, opt Options, b []float64, kernel bool) powersRun {
	t.Helper()
	f := comm.NewFabric(pt.P, 0)
	engines := comm.NewEnginesOp(f, a, op, pt, pcf)
	bs := comm.Scatter(pt, b)
	run := powersRun{results: make([]*Result, pt.P), counters: make([]sstepCounters, pt.P)}
	comm.Run(engines, func(r int, e *comm.Engine) {
		var eng engine.Engine = e
		if !kernel {
			eng = perProduct{e}
		}
		res, err := solve(eng, bs[r], opt)
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
		run.results[r] = res
	})
	for r, e := range engines {
		c := *e.Counters()
		if r == 0 {
			run.halos = c.HaloExchanges
		}
		run.counters[r].spmvFlops = c.SpMVFlops
		c.HaloExchanges, c.SpMVFlops = 0, 0
		run.counters[r].rest = c
	}
	if err := f.Close(); err != nil {
		t.Fatalf("fabric close: %v", err)
	}
	return run
}

// sameBits fails unless the two runs agree, rank by rank, on every iterate
// bit, every History entry and every counter the kernel may not move.
func sameBits(t *testing.T, id string, on, off powersRun) {
	t.Helper()
	for r := range on.results {
		a, b := on.results[r], off.results[r]
		if a == nil || b == nil {
			t.Fatalf("%s rank %d: solve failed", id, r)
		}
		for i := range a.X {
			if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
				t.Fatalf("%s rank %d: x[%d] differs: %x vs %x", id, r, i,
					math.Float64bits(a.X[i]), math.Float64bits(b.X[i]))
			}
		}
		if !reflect.DeepEqual(a.History, b.History) {
			t.Fatalf("%s rank %d: histories differ", id, r)
		}
		if a.Iterations != b.Iterations || a.Outer != b.Outer || a.Converged != b.Converged ||
			math.Float64bits(a.RelRes) != math.Float64bits(b.RelRes) {
			t.Fatalf("%s rank %d: outcomes differ: %+v vs %+v", id, r, a, b)
		}
		if on.counters[r].rest != off.counters[r].rest {
			t.Fatalf("%s rank %d: counters differ:\n%+v\n%+v", id, r, on.counters[r].rest, off.counters[r].rest)
		}
		if on.counters[r].spmvFlops < off.counters[r].spmvFlops {
			t.Fatalf("%s rank %d: SpMVFlops fell: %g vs %g", id, r, on.counters[r].spmvFlops, off.counters[r].spmvFlops)
		}
	}
}

// TestPowersKernelBitIdentical: with the matrix powers kernel engaged, every
// s-step variant must leave the bits and counters of the per-product path —
// over block sizes, rank counts, operator forms and preconditioning — while
// the pipelined variants' steady state drops to one halo exchange per outer
// iteration. The grid is long and thin (4×160 lines) so that even P=8, s=5
// keeps every subdomain 20 lines deep, inside the profitability rule.
func TestPowersKernelBitIdentical(t *testing.T) {
	g := grid.Grid{Nx: 4, Ny: 160, Nz: 1, Stencil: grid.Star5}
	a := g.Laplacian()
	stencil, ok := g.MatrixFree()
	if !ok {
		t.Fatal("no matrix-free Star5 operator")
	}
	rcm := sparse.PermuteSym(a, sparse.RCMOrder(a))
	systems := []struct {
		name string
		a    *sparse.CSR
		op   engine.Operator
	}{{"csr", a, a}, {"stencil", a, stencil}, {"rcm", rcm, rcm}}
	methods := []struct {
		name      string
		solve     Solver
		pipelined bool
	}{{"pipe-pscg", PIPEPSCG, true}, {"pipe-scg", PIPESCG, true}, {"pscg", PSCG, false}, {"scg-s", SCGS, false}}
	pcs := []struct {
		name string
		pcf  comm.PCFactory
	}{{"jacobi", jacobiFactory}, {"none", nil}}

	for _, sys := range systems {
		b := grid.OnesRHS(sys.a)
		for _, p := range []int{2, 3, 4, 8} {
			pt := partition.RowBlock(sys.a.Rows, p)
			for _, m := range methods {
				for _, s := range []int{1, 2, 3, 5} {
					for _, pc := range pcs {
						id := fmt.Sprintf("%s/%s/s=%d/P=%d/%s", sys.name, m.name, s, p, pc.name)
						opt := Defaults()
						opt.S = s
						opt.MaxIter = 60
						on := runPowers(t, sys.a, sys.op, pt, pc.pcf, m.solve, opt, b, true)
						off := runPowers(t, sys.a, sys.op, pt, pc.pcf, m.solve, opt, b, false)
						sameBits(t, id, on, off)
						if m.pipelined && s > 1 {
							// bootstrap: 1 + s exchanges; each outer iteration: s → 1.
							if on.halos >= off.halos {
								t.Fatalf("%s: kernel did not engage: %d vs %d halo exchanges", id, on.halos, off.halos)
							}
						} else if on.halos != off.halos {
							t.Fatalf("%s: nothing to engage on, yet halo exchanges moved: %d vs %d", id, on.halos, off.halos)
						}
					}
				}
			}
		}
	}
}

// TestPowersKernelRefusals: one case per reason the engine declines. The
// per-product path must have run — same bits, same halo exchange count as
// with the capability hidden.
func TestPowersKernelRefusals(t *testing.T) {
	thin := grid.Grid{Nx: 4, Ny: 160, Nz: 1, Stencil: grid.Star5}.Laplacian()
	cases := []struct {
		name string
		a    *sparse.CSR
		p    int
		pcf  comm.PCFactory
	}{
		{"ssor-pc", thin, 2, func(a *sparse.CSR, lo, hi int) engine.Preconditioner {
			return precond.NewSSOR(a, lo, hi, 1.0, 1)
		}},
		{"one-plane-subdomains", grid.NewSquare(8, grid.Star5).Laplacian(), 8, jacobiFactory},
		{"single-rank", thin, 1, jacobiFactory},
	}
	for _, c := range cases {
		pt := partition.RowBlock(c.a.Rows, c.p)
		b := grid.OnesRHS(c.a)
		opt := Defaults()
		opt.MaxIter = 60
		on := runPowers(t, c.a, c.a, pt, c.pcf, PIPEPSCG, opt, b, true)
		off := runPowers(t, c.a, c.a, pt, c.pcf, PIPEPSCG, opt, b, false)
		sameBits(t, c.name, on, off)
		if on.halos != off.halos {
			t.Fatalf("%s: the kernel must decline: %d vs %d halo exchanges", c.name, on.halos, off.halos)
		}
		for r := range on.counters {
			if on.counters[r].spmvFlops != off.counters[r].spmvFlops {
				t.Fatalf("%s rank %d: SpMVFlops moved on a declined kernel", c.name, r)
			}
		}
	}
}

// TestMatrixPowersSimModel: the sim engine prices MPK as one deep exchange.
// When subdomains are at least depth·radius wide (the regime MPK targets),
// halo latency per iteration must drop; when subdomains are a single cell,
// the deep shell's neighbor blow-up must make MPK more expensive — both
// behaviours are genuine CA-SPMV physics.
func TestMatrixPowersSimModel(t *testing.T) {
	run := func(n, p int, mpk bool) sim.Breakdown {
		g := grid.NewCube(n, grid.Star7)
		a := g.Laplacian()
		b := grid.OnesRHS(a)
		e := sim.NewEngine(a, nil)
		e.Decomp = &partition.GridSpec{Nx: n, Ny: n, Nz: n, Radius: 1}
		e.MatrixPowers = mpk
		opt := Defaults()
		opt.Norm = NormUnpreconditioned
		opt.RelTol = 1e-6
		res, err := PIPESCG(e, b, opt)
		if err != nil || !res.Converged {
			t.Fatalf("mpk=%v failed: %v", mpk, err)
		}
		return e.Evaluate(sim.CrayXC40(), p)
	}
	// Favourable regime: 3×3×3-cell subdomains, depth 3, neighbors stay 26.
	plain := run(24, 512, false)
	withMPK := run(24, 512, true)
	if withMPK.Halo >= plain.Halo {
		t.Fatalf("MPK should cut modeled halo latency: %g vs %g", withMPK.Halo, plain.Halo)
	}
	// Hostile regime: single-cell subdomains — the deep shell talks to
	// hundreds of ranks and MPK loses.
	plain1 := run(12, 1728, false)
	mpk1 := run(12, 1728, true)
	if mpk1.Halo <= plain1.Halo {
		t.Fatalf("single-cell subdomains should penalize MPK: %g vs %g", mpk1.Halo, plain1.Halo)
	}
}
