package engine

import (
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// BlockOperator is the optional block (multi-RHS) capability on an Operator:
// apply A to a batch of source columns with one read of the operator.
//
// The contract is strict bit-identity per column: MulMat(ys, xs) must leave
// ys[j] exactly equal — to the bit, at any worker count — to what
// MulVec(ys[j], xs[j]) would have produced. Implementations achieve this by
// replicating the scalar kernel's accumulation order per column and sharing
// the same nnz-balanced chunk plans; it is what lets the block solver
// guarantee that a width-k gang solve equals k independent solves.
type BlockOperator interface {
	Operator
	// MulMat computes ys[j] = A·xs[j] for every column j.
	MulMat(ys, xs [][]float64)
	// MulMatRangeInto computes ys[j][i-lo] = (A·xs[j])[i] for rows [lo, hi)
	// — local-length destinations, the distributed row-block shape.
	MulMatRangeInto(ys, xs [][]float64, lo, hi int)
}

// Both concrete operator families implement the block capability.
var (
	_ BlockOperator = (*sparse.CSR)(nil)
	_ BlockOperator = (*grid.StencilOp)(nil)
)

// ApplyBlock routes a batch through the operator's block kernel when it has
// one and falls back to per-column application otherwise. Destinations are
// local-length (row i of the range lands at ys[j][i-lo]). The bit-identity
// contract on BlockOperator makes the two routes indistinguishable except
// in speed.
func ApplyBlock(op Operator, ys, xs [][]float64, lo, hi int) {
	if b, ok := op.(BlockOperator); ok {
		if lo == 0 {
			if rows, _ := op.Dims(); hi == rows {
				b.MulMat(ys, xs)
				return
			}
		}
		b.MulMatRangeInto(ys, xs, lo, hi)
		return
	}
	for j := range xs {
		op.MulVecRangeInto(ys[j], xs[j], lo, hi)
	}
}

// BlockSpMV is the optional engine capability the block solver keys on:
// dsts[j] = A·srcs[j] over the engine's local rows for a whole batch,
// sharing one pass over the operator — and, on distributed backends, one
// halo-exchange round — across the batch. Engines without it still work
// under a gang; the batch just degrades to per-column SpMV calls. It stays
// outside Engine because only the gang reads it, on its base engine and
// never through a wrapper.
type BlockSpMV interface {
	SpMVBlock(dsts, srcs [][]float64)
}

// SpMVBlock implements BlockSpMV on the sequential engine. The ledger books
// the batch as the client-visible work — len(srcs) SPMVs' worth of flops —
// over a single logical halo exchange, mirroring how the distributed
// backend pays one message round for the whole batch.
func (e *Seq) SpMVBlock(dsts, srcs [][]float64) {
	sp := e.Tr.Begin(obs.PhaseBlockSpMV)
	rows, _ := e.A.Dims()
	ApplyBlock(e.A, dsts, srcs, 0, rows)
	e.Tr.End(sp)
	e.C.SpMV += len(srcs)
	e.C.HaloExchanges++
	e.C.SpMVFlops += 2 * float64(e.A.NNZ()) * float64(len(srcs))
}
