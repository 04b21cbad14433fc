package engine

import (
	"repro/internal/grid"
	"repro/internal/sparse"
)

// Operator is the linear operator the engines apply. *sparse.CSR is the
// canonical implementation; matrix-free operators (e.g. the grid stencils)
// implement the same contract without storing the matrix. The three MulVec
// forms mirror the CSR kernels: global product, global-indexed row range
// (rank-local SPMV into a global vector), and local-indexed row range (the
// SPMD runtime's form, y[i-lo] = (A·x)[i]). The fused and block kernels
// are part of the contract: every operator runs them, so no engine carries a
// fallback.
//
// The chunk-plan hooks expose the parallel execution geometry: ChunkPlan
// returns the cached full-range nnz-balanced plan (a pure function of the
// operator structure, never of the worker count — the PR 1 determinism
// contract) and InvalidatePlan drops it after a structural mutation so a
// stale plan can never be served.
type Operator interface {
	// Dims returns the operator shape (rows, cols).
	Dims() (rows, cols int)
	// NNZ returns the number of (stored or implied) nonzeros; engines use it
	// to account SPMV flops.
	NNZ() int
	// MulVec computes y = A·x. y and x must not alias.
	MulVec(y, x []float64)
	// MulVecRange computes y[i] = (A·x)[i] for i in [lo, hi), y indexed
	// globally.
	MulVecRange(y, x []float64, lo, hi int)
	// MulVecRangeInto computes y[i-lo] = (A·x)[i] for i in [lo, hi).
	MulVecRangeInto(y, x []float64, lo, hi int)
	// Diag returns the operator diagonal (zeros where absent).
	Diag() []float64
	// DiagRange returns the diagonal of rows [lo, hi), locally indexed.
	DiagRange(lo, hi int) []float64
	// ChunkPlan returns the cached full-range chunk plan.
	ChunkPlan() *sparse.Chunks
	// InvalidatePlan drops the cached chunk plan.
	InvalidatePlan()

	// MulVecFused is the cache-blocked fused SPMV + local-dot kernel: it
	// computes y[i-yoff] = scale·(A·x)[i] for rows [lo, hi) and dots[k] =
	// ws[k]·y over the produced range (nil ws[k] means y·y), dotting each
	// chunk of y while it is still cache-hot instead of re-reading it in
	// separate Scale/Dot sweeps. yoff is 0 (global y) or lo (local y).
	MulVecFused(y, x []float64, lo, hi, yoff int, scale float64, ws [][]float64, dots []float64)
	// MulVecFusedDiag does the same and then, still chunk by chunk, scales
	// the rows: y[i-yoff] ends holding inv[i-yoff]·scale·(A·x)[i] — a
	// diagonal preconditioner folded into the product — while the dots
	// still see the unscaled product. Its bits equal MulVecFused followed
	// by y[i] *= inv[i]; a nil inv is MulVecFused.
	MulVecFusedDiag(y, x []float64, lo, hi, yoff int, scale float64, inv []float64, ws [][]float64, dots []float64)

	// MulMat computes ys[j] = A·xs[j] for every column j with one read of
	// the operator, and MulMatRangeInto ys[j][i-lo] = (A·xs[j])[i] for rows
	// [lo, hi) — local-length destinations, the distributed row-block
	// shape. Each column is bit-identical, at any worker count, to the
	// MulVec form: the kernels replicate the scalar accumulation order per
	// column over the same chunk plans, which is what lets the block solver
	// guarantee that a width-k gang solve equals k independent solves.
	MulMat(ys, xs [][]float64)
	MulMatRangeInto(ys, xs [][]float64, lo, hi int)
}

// FusedOperator names the fused kernels' contract, now part of Operator.
type FusedOperator = Operator

// The two operator families: the assembled matrix and the stencils.
var (
	_ Operator = (*sparse.CSR)(nil)
	_ Operator = (*grid.StencilOp)(nil)
)
