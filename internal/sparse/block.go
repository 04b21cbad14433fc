package sparse

import (
	"fmt"

	"repro/internal/par"
)

// Block (multi-RHS) SPMV: y_j = A·x_j for a batch of right-hand-side
// columns, streaming A's Val/Col from memory ONCE for the whole batch. The
// matrix is the memory-bound stream in a CG iteration, so amortizing it over
// k columns is where block solving's throughput comes from.
//
// Determinism contract: per column the accumulation replicates mulRows
// exactly — four partial sums filled in the same element order and combined
// as (s0+s1)+(s2+s3), remainder folded into s0 — and the chunk dispatch uses
// the same nnz-balanced plan as MulVec. A block product is therefore
// bit-identical per column to k independent MulVec calls at any worker
// count, which is what lets the block solver promise bit-identity to k solo
// solves.

// mulRowsMulti applies rows [r0, r1) of A to every source column, writing
// ys[j][i-yoff] for row i and column j. The columns go two at a time: a
// pair's eight partial sums live in registers, and each row's Val/Col run is
// read once per pair while it sits in L1, so A streams from memory once per
// block. (Four columns at a time would need sixteen sums, all sixteen amd64
// XMM registers, before the four loaded values.)
// An odd last column takes the single-column kernel row by row. Columns index
// x as uint32, as in mulRows.
func (a *CSR) mulRowsMulti(ys, xs [][]float64, r0, r1, yoff int) {
	pairs := len(xs) &^ 1
	for i := r0; i < r1; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		col, val := a.Col[lo:hi], a.Val[lo:hi]
		for j := 0; j < pairs; j += 2 {
			x0, x1 := xs[j], xs[j+1]
			var s0, s1, s2, s3, t0, t1, t2, t3 float64
			k := 0
			for ; k+4 <= len(col); k += 4 {
				c0, c1, c2, c3 := uint32(col[k]), uint32(col[k+1]), uint32(col[k+2]), uint32(col[k+3])
				v0, v1, v2, v3 := val[k], val[k+1], val[k+2], val[k+3]
				s0 += v0 * x0[c0]
				t0 += v0 * x1[c0]
				s1 += v1 * x0[c1]
				t1 += v1 * x1[c1]
				s2 += v2 * x0[c2]
				t2 += v2 * x1[c2]
				s3 += v3 * x0[c3]
				t3 += v3 * x1[c3]
			}
			for ; k < len(col); k++ {
				c := uint32(col[k])
				s0 += val[k] * x0[c]
				t0 += val[k] * x1[c]
			}
			ys[j][i-yoff] = (s0 + s1) + (s2 + s3)
			ys[j+1][i-yoff] = (t0 + t1) + (t2 + t3)
		}
		if pairs < len(xs) {
			a.mulRows(ys[pairs], xs[pairs], i, i+1, yoff)
		}
	}
}

// mulMat is the block dispatcher, mirroring mulVec chunk for chunk so block
// and per-column products agree to the bit.
func (a *CSR) mulMat(ys, xs [][]float64, lo, hi, yoff int) {
	if len(ys) != len(xs) {
		panic(fmt.Sprintf("sparse: MulMat shape mismatch: %d dst vs %d src columns", len(ys), len(xs)))
	}
	if len(xs) == 0 {
		return
	}
	if len(xs) == 1 {
		a.mulVec(ys[0], xs[0], lo, hi, yoff)
		return
	}
	for j := range xs {
		if len(xs[j]) < a.Cols {
			panic(fmt.Sprintf("sparse: MulMat x[%d] too short: %d < %d", j, len(xs[j]), a.Cols))
		}
	}
	if lo >= hi {
		return
	}
	total := a.rowWork(lo, hi)
	nc := par.NumChunks(total)
	if nc <= 1 {
		a.mulRowsMulti(ys, xs, lo, hi, yoff)
		return
	}
	if lo == 0 && hi == a.Rows {
		ch := a.ChunkPlan()
		n := len(ch.Bounds) - 1
		par.Default().ForChunks(n, func(c int) {
			a.mulRowsMulti(ys, xs, ch.Bounds[c], ch.Bounds[c+1], yoff)
		})
		return
	}
	par.Default().ForChunks(nc, func(c int) {
		r0 := a.searchRow(lo, hi, c*total/nc)
		r1 := a.searchRow(lo, hi, (c+1)*total/nc)
		a.mulRowsMulti(ys, xs, r0, r1, yoff)
	})
}

// MulMat computes ys[j] = A·xs[j] for every column j, bit-identical per
// column to MulVec but with one read of A for the whole batch.
func (a *CSR) MulMat(ys, xs [][]float64) { a.mulMat(ys, xs, 0, a.Rows, 0) }

// MulMatRangeInto computes ys[j][i-lo] = (A·xs[j])[i] for rows [lo, hi) —
// the block counterpart of MulVecRangeInto, used by the distributed engine
// where each rank owns a row block and the destinations are local-length.
func (a *CSR) MulMatRangeInto(ys, xs [][]float64, lo, hi int) {
	a.mulMat(ys, xs, lo, hi, lo)
}
