package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/par"
)

// randCols returns k deterministic pseudo-random columns of length n.
func randCols(n, k int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]float64, k)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = rng.NormFloat64()
		}
	}
	return cols
}

// TestMulMatBitIdenticalToMulVec is the block determinism contract: MulMat
// must match per-column MulVec to the bit, for every batch width (even widths
// run in column pairs only, odd ones end on the single-column kernel), at any
// worker count, over full and partial row ranges.
func TestMulMatBitIdenticalToMulVec(t *testing.T) {
	prev := par.Workers()
	defer par.SetWorkers(prev)

	mats := map[string]*CSR{
		"band20k": bandMatrix(20000, 4), // parallel path
		"band50":  bandMatrix(50, 3),    // serial path
		"box125":  box125(20),           // boundary rows of lengths ≢ 0 mod 4
	}
	for name, a := range mats {
		for _, k := range []int{1, 2, 3, 4, 7, 8, 9, 16} {
			xs := randCols(a.Cols, k, int64(100*a.Rows+k))
			want := make([][]float64, k)
			for j := range want {
				want[j] = make([]float64, a.Rows)
				a.MulVec(want[j], xs[j])
			}
			for _, w := range []int{1, par.Workers()} {
				par.SetWorkers(w)
				ys := make([][]float64, k)
				for j := range ys {
					ys[j] = make([]float64, a.Rows)
				}
				a.MulMat(ys, xs)
				for j := range ys {
					for i := range ys[j] {
						if ys[j][i] != want[j][i] {
							t.Fatalf("%s k=%d workers=%d: col %d row %d: MulMat %v != MulVec %v",
								name, k, w, j, i, ys[j][i], want[j][i])
						}
					}
				}
			}
			par.SetWorkers(prev)

			// Partial row range, local-length destinations.
			lo, hi := a.Rows/5, 4*a.Rows/5
			ys := make([][]float64, k)
			for j := range ys {
				ys[j] = make([]float64, hi-lo)
			}
			a.MulMatRangeInto(ys, xs, lo, hi)
			for j := range ys {
				for i := range ys[j] {
					if ys[j][i] != want[j][lo+i] {
						t.Fatalf("%s k=%d: range col %d row %d mismatch", name, k, j, lo+i)
					}
				}
			}
		}
	}
}

func TestMulMatEdgeCases(t *testing.T) {
	a := bandMatrix(64, 2)
	// Empty batch and empty range are no-ops.
	a.MulMat(nil, nil)
	a.MulMatRangeInto([][]float64{make([]float64, 0)}, randCols(64, 1, 1), 10, 10)

	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch must panic")
		}
	}()
	a.MulMat(make([][]float64, 2), make([][]float64, 3))
}

func TestMulMatShortColumnPanics(t *testing.T) {
	a := bandMatrix(64, 2)
	ys := [][]float64{make([]float64, 64), make([]float64, 64)}
	xs := [][]float64{make([]float64, 64), make([]float64, 10)}
	defer func() {
		if recover() == nil {
			t.Fatal("short source column must panic")
		}
	}()
	a.MulMat(ys, xs)
}
