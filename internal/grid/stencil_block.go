package grid

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/sparse"
)

// Block (multi-RHS) application for the matrix-free stencil operator. The
// stencil has no Val/Col stream to amortize — its win over CSR is skipping
// the indirection entirely — so the block kernel's saving is scheduling: one
// parallel region (and one chunk-geometry decode per chunk bound) covers all
// k columns instead of k regions. Each column inside a chunk goes through
// the exact FusedRows kernel the single-RHS path uses, so per-column bits match
// MulVec at any worker count by construction.

// mulMat is the block dispatcher, mirroring mulVec chunk for chunk.
func (s *StencilOp) mulMat(ys, xs [][]float64, lo, hi, yoff int) {
	if len(ys) != len(xs) {
		panic(fmt.Sprintf("grid: MulMat shape mismatch: %d dst vs %d src columns", len(ys), len(xs)))
	}
	if len(xs) == 0 {
		return
	}
	for j := range xs {
		if len(xs[j]) < s.n {
			panic(fmt.Sprintf("grid: StencilOp MulMat x[%d] too short: %d < %d", j, len(xs[j]), s.n))
		}
	}
	if lo >= hi {
		return
	}
	total := sparse.RowWork(s.rowPtr, lo, hi)
	nc := par.NumChunks(total)
	if nc <= 1 {
		for j := range xs {
			s.FusedRows(ys[j], xs[j], lo, hi, yoff, 1, nil)
		}
		return
	}
	if lo == 0 && hi == s.n {
		ch := s.ChunkPlan()
		n := len(ch.Bounds) - 1
		par.Default().ForChunks(n, func(c int) {
			for j := range xs {
				s.FusedRows(ys[j], xs[j], ch.Bounds[c], ch.Bounds[c+1], yoff, 1, nil)
			}
		})
		return
	}
	par.Default().ForChunks(nc, func(c int) {
		r0 := sparse.SearchRow(s.rowPtr, lo, hi, c*total/nc)
		r1 := sparse.SearchRow(s.rowPtr, lo, hi, (c+1)*total/nc)
		for j := range xs {
			s.FusedRows(ys[j], xs[j], r0, r1, yoff, 1, nil)
		}
	})
}

// MulMat computes ys[j] = A·xs[j] for every column j, bit-identical per
// column to MulVec.
func (s *StencilOp) MulMat(ys, xs [][]float64) { s.mulMat(ys, xs, 0, s.n, 0) }

// MulMatRangeInto computes ys[j][i-lo] = (A·xs[j])[i] for rows [lo, hi).
func (s *StencilOp) MulMatRangeInto(ys, xs [][]float64, lo, hi int) {
	s.mulMat(ys, xs, lo, hi, lo)
}
