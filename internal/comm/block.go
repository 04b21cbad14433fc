package comm

import (
	"repro/internal/engine"
	"repro/internal/obs"
)

// Block (multi-RHS) SPMV on the goroutine-rank runtime. The batch shares
// ONE halo message round: each neighbor receives a single payload carrying
// all k columns' boundary values back to back (column-major: col 0's rows,
// then col 1's, ...), so the per-message latency — and the fault injector's
// per-message attack surface — is paid once per neighbor instead of once
// per neighbor per column. Both sides derive the layout from (halo, k)
// alone, which is well-defined because a gang's batch composition is a
// deterministic function of the column algorithms and therefore identical
// on every rank.
//
// Block exchanges keep their own send buffers rather than reusing the
// scalar exchange's: the scalar path sends its buffer whole, so growing it
// to k× length would leak stale tail words into scalar payloads.

// blockState is the lazily grown scratch the block path owns.
type blockState struct {
	scratch  [][]float64           // full-length source buffers, one per column
	sendBufs map[int]*[2][]float64 // per-neighbor packed payloads, haloSeq parity
}

// exchangeHaloBlock swaps ghost values for every source column in one
// message round, filling the full-length scratch buffers.
func (e *Engine) exchangeHaloBlock(srcs [][]float64) {
	k := len(srcs)
	for j, src := range srcs {
		copy(e.block.scratch[j][e.lo:e.hi], src)
	}
	halo := e.tr.Begin(obs.PhaseHaloWait)
	seq := e.haloSeq
	e.haloSeq++
	for nbr, rows := range e.halo.Send {
		bufs, ok := e.block.sendBufs[nbr]
		if !ok {
			bufs = &[2][]float64{}
			e.block.sendBufs[nbr] = bufs
		}
		out := bufs[seq&1]
		if len(out) != len(rows)*k {
			out = make([]float64, len(rows)*k)
			bufs[seq&1] = out
		}
		for j, src := range srcs {
			seg := out[j*len(rows) : (j+1)*len(rows)]
			for i, row := range rows {
				seg[i] = src[row-e.lo]
			}
		}
		e.f.send(e.rank, nbr, kindHalo, seq, out)
	}
	for nbr, cols := range e.halo.Recv {
		in, err := e.f.recv(e.rank, nbr, kindHalo, seq)
		if err != nil {
			panic(commPanic{err})
		}
		for j := range srcs {
			seg := in[j*len(cols) : (j+1)*len(cols)]
			for i, col := range cols {
				e.block.scratch[j][col] = seg[i]
			}
		}
	}
	e.tr.End(halo)
}

// SpMVBlock implements engine.BlockSpMV: one packed halo round for the
// whole batch, then the local row block of every column through the
// operator's block kernel — one read of the operator for all k columns.
// Per column the result is bit-identical to SpMV (the block kernels
// replicate the scalar accumulation order), and the ledger matches k solo
// SPMVs except for the amortized halo-exchange count.
func (e *Engine) SpMVBlock(dsts, srcs [][]float64) {
	k := len(srcs)
	if k == 0 {
		return
	}
	if k == 1 {
		e.SpMV(dsts[0], srcs[0])
		return
	}
	if e.block.sendBufs == nil {
		e.block.sendBufs = map[int]*[2][]float64{}
	}
	for len(e.block.scratch) < k {
		e.block.scratch = append(e.block.scratch, make([]float64, len(e.scratch)))
	}
	e.exchangeHaloBlock(srcs)

	sp := e.tr.Begin(obs.PhaseBlockSpMV)
	engine.ApplyBlock(e.op, dsts, e.block.scratch[:k], e.lo, e.hi)
	e.tr.End(sp)

	localNNZ := e.a.RowPtr[e.hi] - e.a.RowPtr[e.lo]
	e.c.SpMV += k
	e.c.HaloExchanges++
	e.c.SpMVFlops += 2 * float64(localNNZ) * float64(k)
}
