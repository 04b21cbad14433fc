// Package blockcg is the block (multi-RHS) solver subsystem: it runs k
// right-hand sides against ONE engine so that every SPMV, halo exchange,
// and global reduction is shared across the batch, while each column keeps
// its own convergence trajectory, history, and counter ledger.
//
// # Architecture: a gang of unmodified solvers
//
// Rather than re-deriving block variants of every method in the family
// (PCG, GROPPCG, s-step, pipelined s-step, the resilience ladder...), the
// package multiplexes the EXISTING single-RHS solvers: each column runs the
// stock krylov.Solver on its own goroutine against a per-column engine view
// (colEngine). Every engine call enters a rendezvous; when all active
// columns have arrived, the last arriver executes the whole batch against
// the shared base engine, in ascending column order:
//
//   - k SPMVs of the same operator become ONE block SPMV (engine.BlockSpMV:
//     one read of A, one packed halo round), which every base has;
//   - k same-shaped reductions become ONE allreduce of the concatenated
//     payloads (vec.Pack → reduce → vec.Unpack), blocking or posted;
//   - mixed batches (columns at different algorithmic points, e.g. after a
//     ladder fallback or a recovery restart) execute per column, in
//     ascending column order — slower, never wrong.
//
// This works because the solvers are pure with respect to the engine seam:
// all cross-rank communication and all global state flow through the Engine
// interface, so interposing a multiplexer is invisible to the algorithm.
//
// # Determinism contract
//
// A width-k gang solve is bit-identical PER COLUMN to k independent
// single-RHS solves on the same base engine type: the iterates, the
// residual history (including ReduceIndex), and the full counter ledger all
// match to the bit. Three properties deliver this:
//
//  1. the block operator kernels (sparse.CSR.MulMat, grid.StencilOp.MulMat)
//     replicate the scalar kernels' accumulation order per column over the
//     same nnz-balanced chunk plans;
//  2. an allreduce of concatenated payloads reduces each column's words
//     exactly as its solo allreduce would (element-wise sum is independent
//     per word; Pack/Unpack are bit-transparent);
//  3. colEngine books per column on its own engine.Meter what the solo
//     engine books (flop charges are measured as deltas on the base
//     ledger), so monitor checkpoints land at identical ReduceIndex values.
//
// Deflation falls out of the design: a converged (or failed) column's
// goroutine simply returns and deregisters, the rendezvous width shrinks,
// and subsequent batches are narrower — no locked-column bookkeeping
// inside the numerics.
//
// # Caveats
//
// The base engine's methods are only ever called under the gang's mutex
// (or from the single executing column), so any engine whose calls are
// single-threaded per rank is safe — engine.Seq and comm.Engine both
// qualify; sim.Engine's virtual clock is not supported under a gang.
package blockcg

import (
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/trace"
)

// Column is one right-hand side of a gang solve.
type Column struct {
	// B is this column's right-hand side.
	B []float64
	// Opt are this column's solver options (tolerance, s, progress hook...).
	Opt krylov.Options
	// Engine, when non-nil, receives the column's engine view before the
	// solver runs, so a progress hook in Opt can read the column's live
	// counter ledger.
	Engine *engine.Engine
}

// Result is one column's outcome: the solver result (nil when an
// engine.Abort unwound the column, whose error Err then holds), its error,
// and the column's own counter ledger — per column bit-identical to what a
// solo solve on the same base engine would report.
type Result struct {
	Res      *krylov.Result
	Err      error
	Counters trace.Counters
}

// Solve runs solver once per column against the shared base engine, with
// every batchable engine call shared across the columns still running. It
// returns one Result per column, in order. An engine.Abort unwinding a
// column (a progress hook canceling its job, a fabric fault poisoning the
// gang) becomes that column's Err; any other panic is re-panicked on the
// caller once every column has settled. See the package documentation for
// the determinism contract.
//
// On a distributed backend, Solve must be called once per rank (inside the
// rank body), with the same column order everywhere; batch composition is a
// deterministic function of the columns' algorithmic state, so the ranks'
// collective sequences stay aligned.
func Solve(base engine.BlockSpMV, solver krylov.Solver, cols []Column) []Result {
	res := make([]Result, len(cols))
	if len(cols) == 0 {
		return res
	}
	g := newGang(base, len(cols))
	panics := make([]any, len(cols))
	done := make(chan int, len(cols))
	for i := range cols {
		go func(i int) {
			defer func() { done <- i }()
			defer engine.Recover(&res[i].Err, func(p any) { panics[i] = p })
			ce := g.cols[i]
			if cols[i].Engine != nil {
				*cols[i].Engine = ce
			}
			defer g.done(ce)
			r, err := solver(ce, cols[i].B, cols[i].Opt)
			res[i].Res, res[i].Err = r, err
		}(i)
	}
	for range cols {
		<-done
	}
	for i := range res {
		res[i].Counters = g.cols[i].C
	}
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return res
}
