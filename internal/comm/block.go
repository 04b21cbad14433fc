package comm

import "repro/internal/obs"

// SpMVBlock implements engine.BlockSpMV: the batch shares ONE round of the
// products' ghost exchange — each neighbor receives a single payload
// carrying all k columns' boundary values back to back, so the per-message
// latency (and the fault injector's per-message attack surface) is paid
// once per neighbor instead of once per neighbor per column — then the
// local row block of every column runs through the operator's block kernel,
// one read of the operator for all k columns. Per column the result is
// bit-identical to SpMV (the block kernels replicate the scalar
// accumulation order), and the ledger matches k solo SPMVs except for the
// amortized halo-exchange count.
func (e *Engine) SpMVBlock(dsts, srcs [][]float64) {
	k := len(srcs)
	e.exchangeGhosts(&e.shallow, srcs...)

	sp := e.Tr.Begin(obs.PhaseBlockSpMV)
	e.op.MulMatRangeInto(dsts, e.cols[:k], e.lo, e.hi)
	e.BookProducts(sp, k, e.flops*float64(k))
}
