package grid

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
)

// boxAVXGrids are the grids TestBoxKernelsAVXBitIdentical runs: stencilGrids'
// box grids, and on both box stencils the 12³ cube, Nx from 1 to 11 on a 3×2
// cross-section, which gives every clipped width, x-edge points alone and in
// pairs, and interior runs of one to seven points (short of four, one block,
// and an overlapping last block), and two one-line-thick grids whose
// interior tables have no sub5 group.
func boxAVXGrids() []Grid {
	var grids []Grid
	for _, g := range stencilGrids() {
		if g.Stencil == Box125 || g.Stencil == Box27 {
			grids = append(grids, g)
		}
	}
	for _, st := range []Stencil{Box125, Box27} {
		grids = append(grids, NewCube(12, st), Grid{Nx: 6, Ny: 1, Nz: 3, Stencil: st}, Grid{Nx: 9, Ny: 1, Nz: 3, Stencil: st})
		for nx := 1; nx <= 11; nx++ {
			grids = append(grids, Grid{Nx: nx, Ny: 3, Nz: 2, Stencil: st})
		}
	}
	return grids
}

// TestBoxKernelsAVXBitIdentical runs the box stencils' products on the Go
// loops (sub5 and boxTable.pass) and on the four-wide kernels and demands
// the same bits: whole products at two chunk grains; MulVecRange over odd
// row ranges; FusedRows over row ranges cut at every point of a line's
// first three, of lengths 1 to 2·Nx+3, with a scale and a row scale; and
// MulVecFused and MulVecFusedDiag with dots. Inputs mix ±0, subnormals,
// ±Inf and NaN (lineInput), or are all ±0, where only a zeroed accumulator
// gives Go's +0. Two NaNs count as equal (see TestLineKernelsAVXBitIdentical).
func TestBoxKernelsAVXBitIdentical(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	defer func(v bool) { useAVX2 = v }(useAVX2)
	defer par.SetWorkers(par.Default().Workers())
	defer par.SetGrain(par.Grain())
	par.SetWorkers(2)
	for gi, g := range boxAVXGrids() {
		op, err := NewStencilOp(g)
		if err != nil {
			t.Fatal(err)
		}
		n, nx := g.N(), g.Nx
		for _, zeros := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(gi)))
			x := lineInput(rng, n, 0, zeros)
			w0 := lineInput(rng, n, 0, false)
			inv := lineInput(rng, n, 0, false)
			nanVec := func(m int) []float64 {
				y := make([]float64, m)
				for i := range y {
					y[i] = math.NaN()
				}
				return y
			}
			cases := []struct {
				name string
				run  func() []float64
			}{
				{"MulVec", func() []float64 {
					var out []float64
					for _, grain := range []int{4096, 700} {
						par.SetGrain(grain)
						op.InvalidatePlan()
						y := nanVec(n)
						op.MulVec(y, x)
						out = append(out, y...)
					}
					return out
				}},
				{"MulVecRange", func() []float64 {
					par.SetGrain(700)
					var out []float64
					for _, r := range [][2]int{{1, n - 1}, {n/3 | 1, 2*n/3 | 1}, {min(7, n), n - n/5}} {
						y := nanVec(n)
						op.MulVecRange(y, x, r[0], r[1])
						out = append(out, y...)
					}
					return out
				}},
				{"FusedRows", func() []float64 {
					var out []float64
					for a := 0; a < min(n, 3*nx+1); a++ {
						for _, l := range []int{1, 2, 3, 4, 5, 6, 7, 9, nx, 2*nx + 3} {
							b := min(n, a+l)
							y := nanVec(b - a)
							op.FusedRows(y, x, a, b, a, 1, nil)
							out = append(out, y...)
							op.FusedRows(y, x, a, b, a, -0.37, inv[a:b])
							out = append(out, y...)
						}
					}
					return out
				}},
				{"MulVecFused", func() []float64 {
					par.SetGrain(700)
					y, dots := nanVec(n), make([]float64, 2)
					op.MulVecFused(y, x, 0, n, 0, 0.8, [][]float64{w0, nil}, dots)
					out := append(y, dots...)
					lo, hi := n/4|1, 3*n/4+1
					y, dots = nanVec(hi-lo), make([]float64, 2)
					op.MulVecFusedDiag(y, x, lo, hi, lo, 0.8, inv[lo:hi], [][]float64{w0[lo:hi], nil}, dots)
					return append(append(out, y...), dots...)
				}},
			}
			for _, c := range cases {
				useAVX2 = false
				want := c.run()
				useAVX2 = true
				got := c.run()
				for i := range want {
					g, w := got[i], want[i]
					if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
						t.Fatalf("%v zeros=%v %s: value %d: four-wide %v (%#x), Go %v (%#x)", op.g, zeros,
							c.name, i, g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
		}
	}
}

// TestBoxTableExtent holds every x a box point reads — its sub5 groups'
// terms, its table's batches and tail, and boxPairAVX's two loads per
// batch — inside the table's [lo, hi], the extent the four-wide kernels'
// callers check against x.
func TestBoxTableExtent(t *testing.T) {
	for _, g := range boxAVXGrids() {
		op, err := NewStencilOp(g)
		if err != nil {
			t.Fatal(err)
		}
		for si := range op.shapes {
			sh := &op.shapes[si]
			for ti := range sh.tabs {
				tab := &sh.tabs[ti]
				if tab.batch == nil {
					continue // no x window of this grid
				}
				var reads []int
				for j := 0; j < tab.from; j++ {
					for d := -op.r; d <= op.r; d++ {
						reads = append(reads, sh.off[j]+d)
					}
				}
				for _, o := range tab.batch {
					reads = append(reads, o[:]...)
				}
				reads = append(reads, tab.toff[:tab.ntail]...)
				for _, sp := range tab.split {
					reads = append(reads, sp.at, sp.at+3, sp.bt, sp.bt+3)
				}
				for _, o := range reads {
					if o < tab.lo || o > tab.hi {
						t.Fatalf("%v shape %d table %d: reads offset %d outside [%d, %d]", g, si, ti, o, tab.lo, tab.hi)
					}
				}
			}
		}
	}
}
