package comm

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/partition"
)

// TestSpMVBlockBitIdenticalAcrossRanks checks the distributed block SPMV:
// one packed halo message per neighbor per round, every column bit-identical
// to the scalar SpMV path, at several rank counts and widths — including
// width changes between rounds (the gang's batch shrinks as columns
// converge) and interleaved scalar exchanges (so the send buffers the block
// rounds grow never leak into scalar payloads).
func TestSpMVBlockBitIdenticalAcrossRanks(t *testing.T) {
	g := grid.NewCube(9, grid.Star7)
	a := g.Laplacian()
	n := a.Rows
	rng := rand.New(rand.NewSource(11))
	const kMax = 5
	xs := make([][]float64, kMax)
	for j := range xs {
		xs[j] = make([]float64, n)
		for i := range xs[j] {
			xs[j][i] = rng.NormFloat64()
		}
	}
	want := make([][]float64, kMax)
	for j := range want {
		want[j] = make([]float64, n)
		a.MulVec(want[j], xs[j])
	}

	for _, p := range []int{1, 2, 4, 7} {
		f := NewFabric(p, 0)
		pt := partition.RowBlockByNNZ(a, p)
		engines := NewEnginesOp(f, a, a, pt, nil)
		got := make([][][]float64, p) // per rank, per round, local block
		Run(engines, func(rank int, e *Engine) {
			local := e.hi - e.lo
			// Round 1: full width. Round 2: scalar SpMV interleaved.
			// Round 3: shrunken batch (columns 0 and 2), as after deflation.
			for round, idx := range [][]int{{0, 1, 2, 3, 4}, {1}, {0, 2}} {
				srcs := make([][]float64, len(idx))
				dsts := make([][]float64, len(idx))
				for jj, j := range idx {
					srcs[jj] = xs[j][e.lo:e.hi]
					dsts[jj] = make([]float64, local)
				}
				if round == 1 {
					e.SpMV(dsts[0], srcs[0])
				} else {
					e.SpMVBlock(dsts, srcs)
				}
				for jj, j := range idx {
					for i := range dsts[jj] {
						if dsts[jj][i] != want[j][e.lo+i] {
							t.Errorf("p=%d rank %d round %d col %d row %d: got %v want %v",
								p, rank, round, j, e.lo+i, dsts[jj][i], want[j][e.lo+i])
							return
						}
					}
				}
			}
			got[rank] = nil
		})
		if err := f.Close(); err != nil {
			t.Fatalf("p=%d fabric close: %v", p, err)
		}
	}
}

// TestSpMVBlockLedger checks the amortization the block path books: k SPMVs'
// worth of flops over ONE halo exchange per round.
func TestSpMVBlockLedger(t *testing.T) {
	g := grid.NewSquare(16, grid.Star5)
	a := g.Laplacian()
	const p, k = 2, 3
	f := NewFabric(p, 0)
	pt := partition.RowBlockByNNZ(a, p)
	engines := NewEnginesOp(f, a, a, pt, nil)
	Run(engines, func(rank int, e *Engine) {
		local := e.hi - e.lo
		srcs := make([][]float64, k)
		dsts := make([][]float64, k)
		for j := range srcs {
			srcs[j] = make([]float64, local)
			srcs[j][0] = float64(j + 1)
			dsts[j] = make([]float64, local)
		}
		e.SpMVBlock(dsts, srcs)
		c := e.Counters()
		if c.SpMV != k {
			t.Errorf("rank %d: SpMV count %d, want %d", rank, c.SpMV, k)
		}
		if c.HaloExchanges != 1 {
			t.Errorf("rank %d: HaloExchanges %d, want 1 (amortized)", rank, c.HaloExchanges)
		}
	})
	if err := f.Close(); err != nil {
		t.Fatalf("fabric close: %v", err)
	}
}
