package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/partition"
	"repro/internal/precond"
)

// recordHash digests everything replay reads from a recording — every
// event's kind, flops, bytes, words, id, depth, PC-internal rounds and
// reductions, and phase tag — together with the kernel counters.
func recordHash(e *Engine) string {
	h := fnv.New64a()
	for _, ev := range e.events {
		fmt.Fprintf(h, "%d %x %x %d %d %d %d %d %d\n", ev.kind,
			math.Float64bits(ev.flops), math.Float64bits(ev.bytes),
			ev.words, ev.id, ev.depth, ev.p2pRounds, ev.allreduces, ev.phase)
	}
	fmt.Fprintf(h, "%+v", *e.Counters())
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestRecordingPinned pins the recorded event streams and counters of four
// solves that together reach every event kind: one-space PIPE-PsCG with the
// Jacobi PC folded into the products, twin-space PsCG under SSOR (real PC
// events with their own costs), PIPECG's post/wait pairs, and PIPE-sCG's
// matrix powers blocks on a box decomposition. Any change to what the
// recorder prices, or in what order, moves a hash; so does a change to the
// numerics, through the iteration counts.
func TestRecordingPinned(t *testing.T) {
	g := grid.NewCube(10, grid.Star7)
	a := g.Laplacian()
	b := grid.OnesRHS(a)
	opt := krylov.Defaults()
	opt.RelTol = 1e-6

	cases := []struct {
		name  string
		pc    engine.Preconditioner
		solve krylov.Solver
		mpk   bool
		want  string
	}{
		{"pipe-pscg/jacobi", precond.NewJacobi(a, 0, a.Rows), krylov.PIPEPSCG, false, "b7b0e2e578fd9a70"},
		{"pscg/ssor", precond.NewSSOR(a, 0, a.Rows, 1.2, 1), krylov.PSCG, false, "9403a6ef18a576b0"},
		{"pipecg/none", nil, krylov.PIPECG, false, "629935bf7ea75b15"},
		{"pipe-scg/mpk", nil, krylov.PIPESCG, true, "52e8eb34ba50d2cb"},
	}
	for _, c := range cases {
		e := NewEngine(a, c.pc)
		if c.mpk {
			e.Decomp = &partition.GridSpec{Nx: 10, Ny: 10, Nz: 10, Radius: 1}
			e.MatrixPowers = true
		}
		res, err := c.solve(e, b, opt)
		if err != nil || !res.Converged {
			t.Fatalf("%s: converged=%v err=%v", c.name, res != nil && res.Converged, err)
		}
		if got := recordHash(e); got != c.want {
			t.Errorf("%s: recording hash %s, want %s (%d events, %+v)", c.name, got, c.want, len(e.events), *e.Counters())
		}
	}
}
