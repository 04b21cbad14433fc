package grid

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
)

// TestStencilMulMatBitIdentical checks the block determinism contract on
// every stencil grid: MulMat matches the assembled matrix's per-column MulVec
// to the bit at every batch width and worker count, full range and row
// range.
func TestStencilMulMatBitIdentical(t *testing.T) {
	defer par.SetWorkers(par.Default().Workers())
	defer par.SetGrain(par.Grain())
	par.SetGrain(64) // force multi-chunk plans even on tiny grids
	rng := rand.New(rand.NewSource(7))
	for _, g := range stencilGrids() {
		a := g.Laplacian()
		a.InvalidatePlan()
		op, err := NewStencilOp(g)
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		n := g.N()
		for _, k := range []int{1, 3, 8, 9} {
			xs := make([][]float64, k)
			want := make([][]float64, k)
			for j := range xs {
				xs[j] = make([]float64, n)
				fillRand(xs[j], rng)
				want[j] = make([]float64, n)
				a.MulVec(want[j], xs[j])
			}
			same := func(tag string, j, i int, got, want float64) {
				t.Helper()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v k=%d %s: col %d row %d: block %x, CSR %x",
						g, k, tag, j, i, math.Float64bits(got), math.Float64bits(want))
				}
			}
			for _, w := range []int{1, 4} {
				par.SetWorkers(w)
				ys := make([][]float64, k)
				for j := range ys {
					ys[j] = make([]float64, n)
				}
				op.MulMat(ys, xs)
				for j := range ys {
					for i := range ys[j] {
						same("full", j, i, ys[j][i], want[j][i])
					}
				}
				lo, hi := n/4, 3*n/4+1
				for j := range ys {
					ys[j] = ys[j][:hi-lo]
				}
				op.MulMatRangeInto(ys, xs, lo, hi)
				for j := range ys {
					for i := range ys[j] {
						same("range", j, lo+i, ys[j][i], want[j][lo+i])
					}
				}
			}
		}
	}
}
