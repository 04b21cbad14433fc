package engine

import (
	"repro/internal/sparse"
	"repro/internal/vec"
)

// Operator is the linear operator the engines apply. *sparse.CSR is the
// canonical implementation; matrix-free operators (e.g. the grid stencils)
// implement the same contract without storing the matrix. The three MulVec
// forms mirror the CSR kernels: global product, global-indexed row range
// (rank-local SPMV into a global vector), and local-indexed row range (the
// SPMD runtime's form, y[i-lo] = (A·x)[i]).
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
}

// FusedOperator is an optional Operator capability: the cache-blocked fused
// SPMV + local-dot kernel. MulVecFused computes y[i-yoff] = scale·(A·x)[i]
// for rows [lo, hi) and dots[k] = ws[k]·y over the produced range (nil ws[k]
// means y·y), dotting each chunk of y while it is still cache-hot instead of
// re-reading it in separate Scale/Dot sweeps. MulVecFusedDiag does the same
// and then, still chunk by chunk, scales the rows: y[i-yoff] ends holding
// inv[i-yoff]·scale·(A·x)[i] — a diagonal preconditioner folded into the
// product — while the dots still see the unscaled product. Its bits equal
// MulVecFused followed by y[i] *= inv[i]; a nil inv is MulVecFused.
type FusedOperator interface {
	Operator
	MulVecFused(y, x []float64, lo, hi, yoff int, scale float64, ws [][]float64, dots []float64)
	MulVecFusedDiag(y, x []float64, lo, hi, yoff int, scale float64, inv []float64, ws [][]float64, dots []float64)
}

// FusedApply routes the fused product through the operator's fused kernel
// when it has one, and otherwise emulates it with the basic kernels:
// product, element-wise scale, one vec.Dot per ws entry, then the row scale
// by inv (nil for none). The emulation is deterministic but folds its dots
// over vec's length-uniform chunk geometry rather than the operator's
// work-balanced plan, so mixing fused and unfused operators for the same
// logical run changes bits; engines in a run always share one operator,
// which keeps every rank on one path. yoff must be 0 (global y) or lo
// (local y), matching the MulVec forms; inv shares y's indexing.
func FusedApply(op Operator, y, x []float64, lo, hi, yoff int, scale float64, inv []float64, ws [][]float64, dots []float64) {
	if f, ok := op.(FusedOperator); ok {
		f.MulVecFusedDiag(y, x, lo, hi, yoff, scale, inv, ws, dots)
		return
	}
	if yoff == 0 {
		op.MulVecRange(y, x, lo, hi)
	} else {
		op.MulVecRangeInto(y, x, lo, hi)
	}
	local := y[lo-yoff : hi-yoff]
	if scale != 1 {
		vec.Scale(local, scale)
	}
	for k, w := range ws {
		src := local
		if w != nil {
			src = w[lo-yoff : hi-yoff]
		}
		dots[k] = vec.Dot(src, local)
	}
	if inv != nil {
		vec.MulInto(local, local, inv[lo-yoff:hi-yoff])
	}
}

var _ FusedOperator = (*sparse.CSR)(nil)
