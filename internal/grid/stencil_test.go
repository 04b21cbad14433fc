package grid

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
)

// fillRand fills x with a deterministic mix of signs, magnitudes and exact
// zeros — zeros matter because the bit contract covers signed-zero folding.
func fillRand(x []float64, rng *rand.Rand) {
	for i := range x {
		switch rng.Intn(8) {
		case 0:
			x[i] = 0
		case 1:
			x[i] = -rng.Float64()
		default:
			x[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(20)-10)
		}
	}
}

// stencilGrids are the shapes every stencil bit-identity test runs. The star
// grids cover every (z, y) line window and x point window. The box
// grids take cubes from one point up (every clipped slice width, axes with
// no full-width point) and non-cubic ones whose axes clip differently.
func stencilGrids() []Grid {
	grids := []Grid{
		NewCube(7, Star7),
		{Nx: 5, Ny: 4, Nz: 3, Stencil: Star7},
		{Nx: 13, Ny: 4, Nz: 3, Stencil: Star7}, // long interior runs
		{Nx: 2, Ny: 3, Nz: 3, Stencil: Star7},  // lines with no interior point
		{Nx: 17, Ny: 5, Nz: 1, Stencil: Star5},
		{Nx: 4, Ny: 1, Nz: 3, Stencil: Star7}, // degenerate dimension
		{Nx: 1, Ny: 3, Nz: 2, Stencil: Star7},
		NewSquare(9, Star5),
		{Nx: 6, Ny: 2, Nz: 1, Stencil: Star5},
		{Nx: 1, Ny: 5, Nz: 1, Stencil: Star5},
	}
	// Every star line window and every point window: axis lengths 1, 2
	// and 3 (a Star7 grid needs Nz > 1).
	for nz := 1; nz <= 3; nz++ {
		for ny := 1; ny <= 3; ny++ {
			for nx := 1; nx <= 3; nx++ {
				st := Star7
				if nz == 1 {
					st = Star5
				}
				grids = append(grids, Grid{Nx: nx, Ny: ny, Nz: nz, Stencil: st})
			}
		}
	}
	for _, st := range []Stencil{Box125, Box27} {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 20} {
			grids = append(grids, NewCube(n, st))
		}
		// The last grid's x-interior runs span three scratch blocks.
		for _, d := range [][3]int{{11, 6, 5}, {5, 3, 7}, {7, 1, 4}, {2, 9, 3}, {140, 3, 5}} {
			grids = append(grids, Grid{Nx: d[0], Ny: d[1], Nz: d[2], Stencil: st})
		}
	}
	return grids
}

// TestStencilStructureMatchesCSR pins the synthetic row-pointer array — and
// with it the chunk-plan geometry and NNZ accounting — to the assembled
// matrix's.
func TestStencilStructureMatchesCSR(t *testing.T) {
	for _, g := range stencilGrids() {
		a := g.Laplacian()
		op, err := NewStencilOp(g)
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if op.NNZ() != a.NNZ() {
			t.Errorf("%v: NNZ %d != CSR %d", g, op.NNZ(), a.NNZ())
		}
		for i := 0; i <= g.N(); i++ {
			if op.rowPtr[i] != a.RowPtr[i] {
				t.Fatalf("%v: rowPtr[%d] = %d, CSR %d", g, i, op.rowPtr[i], a.RowPtr[i])
			}
		}
		pb, cb := op.ChunkPlan().Bounds, a.ChunkPlan().Bounds
		if len(pb) != len(cb) {
			t.Fatalf("%v: plan size %d != CSR %d", g, len(pb), len(cb))
		}
		for i := range pb {
			if pb[i] != cb[i] {
				t.Fatalf("%v: plan bound %d = %d, CSR %d", g, i, pb[i], cb[i])
			}
		}
		d, cd := op.Diag(), a.Diag()
		for i := range d {
			if d[i] != cd[i] {
				t.Fatalf("%v: diag[%d] = %v, CSR %v", g, i, d[i], cd[i])
			}
		}
	}
}

// TestStencilMulVecBitwise runs every MulVec form against the assembled
// matrix at several worker counts and demands bit identity.
func TestStencilMulVecBitwise(t *testing.T) {
	defer par.SetWorkers(par.Default().Workers())
	defer par.SetGrain(par.Grain())
	par.SetGrain(64) // force multi-chunk plans even on tiny grids
	rng := rand.New(rand.NewSource(42))
	for _, g := range stencilGrids() {
		a := g.Laplacian()
		a.InvalidatePlan() // grain changed after any prior plan
		op, err := NewStencilOp(g)
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		n := g.N()
		x := make([]float64, n)
		fillRand(x, rng)
		want := make([]float64, n)
		got := make([]float64, n)
		ranges := [][2]int{{0, n}, {0, n / 2}, {n / 3, n}, {n / 4, 3 * n / 4}}
		for _, w := range []int{1, 3, 8} {
			par.SetWorkers(w)
			a.MulVec(want, x)
			op.MulVec(got, x)
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("%v w=%d: MulVec[%d] = %x, CSR %x", g, w, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				if lo >= hi {
					continue
				}
				for i := range want {
					want[i], got[i] = math.NaN(), math.NaN()
				}
				a.MulVecRange(want, x, lo, hi)
				op.MulVecRange(got, x, lo, hi)
				for i := lo; i < hi; i++ {
					if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
						t.Fatalf("%v w=%d [%d,%d): MulVecRange[%d] mismatch", g, w, lo, hi, i)
					}
				}
				wl := make([]float64, hi-lo)
				gl := make([]float64, hi-lo)
				a.MulVecRangeInto(wl, x, lo, hi)
				op.MulVecRangeInto(gl, x, lo, hi)
				for i := range wl {
					if math.Float64bits(wl[i]) != math.Float64bits(gl[i]) {
						t.Fatalf("%v w=%d [%d,%d): MulVecRangeInto[%d] mismatch", g, w, lo, hi, i)
					}
				}
			}
		}
	}
}

// TestStencilFusedBitwise pins the fused kernel against the CSR fused kernel
// (y and dots), the fused scale against product-then-scale, and the folded
// diagonal row scale (MulVecFusedDiag) against the fused product followed by
// y[i] *= inv[i] — with and without dots, over the full range and over
// rank-local ranges that start and end mid-line.
func TestStencilFusedBitwise(t *testing.T) {
	defer par.SetWorkers(par.Default().Workers())
	defer par.SetGrain(par.Grain())
	par.SetGrain(64)
	rng := rand.New(rand.NewSource(7))
	for _, g := range stencilGrids() {
		a := g.Laplacian()
		a.InvalidatePlan()
		op, _ := NewStencilOp(g)
		n := g.N()
		x := make([]float64, n)
		w0 := make([]float64, n)
		inv := make([]float64, n)
		fillRand(x, rng)
		fillRand(w0, rng)
		for i := range inv {
			inv[i] = 1 / (1 + rng.Float64())
		}
		want := make([]float64, n)
		got := make([]float64, n)
		wantDots := make([]float64, 2)
		gotDots := make([]float64, 2)
		for _, workers := range []int{1, 4} {
			par.SetWorkers(workers)
			for _, scale := range []float64{1, 1 / 3.0} {
				a.MulVecFused(want, x, 0, n, 0, scale, [][]float64{w0, nil}, wantDots)
				op.MulVecFused(got, x, 0, n, 0, scale, [][]float64{w0, nil}, gotDots)
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
						t.Fatalf("%v w=%d scale=%v: fused y[%d] mismatch", g, workers, scale, i)
					}
				}
				for k := range wantDots {
					if math.Float64bits(wantDots[k]) != math.Float64bits(gotDots[k]) {
						t.Fatalf("%v w=%d scale=%v: fused dot[%d] = %x, CSR %x", g, workers, scale, k,
							math.Float64bits(gotDots[k]), math.Float64bits(wantDots[k]))
					}
				}
				// Fused scale must equal product-then-scale exactly.
				plain := make([]float64, n)
				a.MulVec(plain, x)
				for i := range plain {
					plain[i] *= scale
					if math.Float64bits(plain[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%v scale=%v: fused scale diverges from scale-after at %d", g, scale, i)
					}
				}
				for _, r := range [][2]int{{0, n}, {n / 3, n}, {n / 4, 3*n/4 + 1}} {
					lo, hi := r[0], r[1]
					for _, ws := range [][][]float64{nil, {w0[lo:hi], nil}} {
						ref := make([]float64, hi-lo)
						refDots := make([]float64, len(ws))
						a.MulVecFused(ref, x, lo, hi, lo, scale, ws, refDots)
						for i := range ref {
							ref[i] *= inv[lo+i]
						}
						for name, k := range map[string]interface {
							MulVecFusedDiag(y, x []float64, lo, hi, yoff int, scale float64, inv []float64, ws [][]float64, dots []float64)
						}{"csr": a, "stencil": op} {
							y := make([]float64, hi-lo)
							dots := make([]float64, len(ws))
							k.MulVecFusedDiag(y, x, lo, hi, lo, scale, inv[lo:hi], ws, dots)
							for i := range y {
								if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
									t.Fatalf("%v %s w=%d scale=%v [%d,%d) dots=%d: folded y[%d] = %x, want %x", g, name,
										workers, scale, lo, hi, len(ws), i, math.Float64bits(y[i]), math.Float64bits(ref[i]))
								}
							}
							for d := range dots {
								if math.Float64bits(dots[d]) != math.Float64bits(refDots[d]) {
									t.Fatalf("%v %s [%d,%d): folded dot[%d] sees the row scale", g, name, lo, hi, d)
								}
							}
						}
					}
				}
			}
		}
	}
}
