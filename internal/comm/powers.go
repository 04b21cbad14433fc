package comm

import (
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// The matrix powers kernel (engine.Engine.SpMVPowers; Hoemmen's CA-SPMV, the
// paper's §II): a powers block of k products costs ONE message round — a
// depth-k ghost exchange — instead of k, and the rank recomputes the
// ghost-zone rows of the intermediate levels itself, preconditioner
// included. Every recomputed row goes through the row kernels and the
// preconditioner its owner uses, so the block is bit-identical to the
// per-product sequence and the solver never needs to know which one ran.

// powersPlans is the kernel's fabric-wide state, shared by the engines of
// one NewEnginesOp call: the depth-k plans of every rank and, with them, the
// decision to engage, made once per depth by whichever rank asks first. The
// decision has to be the same on every rank — ranks that disagreed would
// wait for messages nobody sends — so it lives here and not in an engine.
type powersPlans struct {
	a        *sparse.CSR
	pt       partition.Partition
	diagonal bool // every rank's preconditioner is diagonal (or absent)

	mu      sync.Mutex
	byDepth map[int][]partition.PowersPlan // nil plans = refused
}

// plansFor returns every rank's depth-k plan, or nil when the kernel must
// not engage. It engages iff there is an exchange to save (P ≥ 2, k ≥ 2),
// ghost rows can be preconditioned where they are recomputed (a diagonal
// PC, engine.DiagonalPC), and the plans are worthwhile — a pure function of
// the preconditioner, the partition and the matrix structure, never of an
// option.
func (ps *powersPlans) plansFor(depth int) []partition.PowersPlan {
	if ps.pt.P < 2 || depth < 2 || !ps.diagonal {
		return nil
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	plans, ok := ps.byDepth[depth]
	if !ok {
		plans = partition.BuildPowersPlansCSR(ps.a.RowPtr, ps.a.Col, ps.pt, depth)
		if !worthwhile(plans, ps.pt) {
			plans = nil
		}
		if ps.byDepth == nil {
			ps.byDepth = map[int][]partition.PowersPlan{}
		}
		ps.byDepth[depth] = plans
	}
	return plans
}

// worthwhile is the profitability rule: on every rank the ghost rows it
// would recompute (the widest level; later levels recompute a subset) number
// at most a quarter of its own row-products, depth × rows — in slab terms a
// subdomain has to be about six ghost shells deep, so thin subdomains, whose
// shells rival the block itself, keep the per-product path. It also demands
// that every rank hears from exactly the ranks it sends to, which the send
// double-buffering of a ghostExchange relies on.
func worthwhile(plans []partition.PowersPlan, pt partition.Partition) bool {
	for r := range plans {
		p := &plans[r]
		if 4*partition.RunRows(p.Extra[0]) > p.Depth*pt.Rows(r) || len(p.Send) != len(p.GhostFrom) {
			return false
		}
		for nbr := range p.Send {
			if _, ok := p.GhostFrom[nbr]; !ok {
				return false
			}
		}
	}
	return true
}

// ghostRun is one contiguous run of off-rank rows recomputed at some level,
// with the factors of the diagonal preconditioner the engine's PCFactory
// builds over it (nil = identity).
type ghostRun struct {
	partition.Run
	inv []float64
}

// ghostLevel is what one level of a block recomputes off-rank.
type ghostLevel struct {
	runs  []ghostRun
	flops float64 // the runs' SPMV flops
}

// deepExchange is one rank's state for one depth: the single exchange, the
// ghost runs of every level but the last (which feeds no later one), and the
// scratch their products land in before M⁻¹ moves them into the source
// buffer.
type deepExchange struct {
	ghostExchange
	levels []ghostLevel // levels[j]: ghost rows of product j+1
	ghostR []float64    // len = rows of levels[0], the widest level
}

// deepFor returns this rank's exchange state for the depth, building it on
// first use; nil means the kernel does not engage at this depth.
func (e *Engine) deepFor(depth int) *deepExchange {
	dx, ok := e.deep[depth]
	if ok {
		return dx
	}
	if plans := e.powers.plansFor(depth); plans != nil {
		dx = e.newDeepExchange(&plans[e.rank])
	}
	if e.deep == nil {
		e.deep = map[int]*deepExchange{}
	}
	e.deep[depth] = dx
	return dx
}

func (e *Engine) newDeepExchange(plan *partition.PowersPlan) *deepExchange {
	dx := &deepExchange{
		ghostExchange: newGhostExchange(plan.Send, plan.GhostFrom),
		ghostR:        make([]float64, partition.RunRows(plan.Extra[0])),
	}
	for _, runs := range plan.Extra[:plan.Depth-1] {
		level := ghostLevel{runs: make([]ghostRun, len(runs))}
		for i, run := range runs {
			level.runs[i].Run = run
			if e.pcf != nil {
				level.runs[i].inv = engine.InvDiagonal(e.pcf(e.a, run.Lo, run.Hi))
			}
			level.flops += 2 * float64(e.a.RowPtr[run.Hi]-e.a.RowPtr[run.Lo])
		}
		dx.levels = append(dx.levels, level)
	}
	return dx
}

// mulRows writes y[i-lo] = inv[i-lo]·scale·(A·u)[i] for rows [lo, hi),
// u being the staged source, through the row kernels SpMV (scale 1, nil
// inv) and SpMVFusedDots use; a nil inv is no row scale.
func (e *Engine) mulRows(y []float64, lo, hi int, scale float64, inv []float64) {
	if scale == 1 && inv == nil {
		e.op.MulVecRangeInto(y, e.cols[0], lo, hi)
		return
	}
	e.op.MulVecFusedDiag(y, e.cols[0], lo, hi, lo, scale, inv, nil, nil)
}

// SpMVPowers implements engine.Engine. After the single deep exchange
// the source buffer holds u on the local rows and on every ghost row a
// later level reads; each level applies the local rows straight into the
// caller's vectors and the level's ghost runs into ghostR, and only then —
// all reads of the old u done — overwrites u in place with M⁻¹ of both.
// With a nil dstR, M⁻¹ rides each product's write-back, local and ghost
// rows alike, and the next u is copied in as it is.
func (e *Engine) SpMVPowers(dstR, dstU [][]float64, src []float64, scale float64) bool {
	fold := dstR == nil
	levels, inv := dstR, []float64(nil) // where each level's local products land
	if fold {
		levels, inv = dstU, engine.InvDiagonal(e.pc)
	}
	depth := len(levels)
	dx := e.deepFor(depth)
	if dx == nil {
		return false
	}
	e.exchangeGhosts(&dx.ghostExchange, src)
	e.BookPowers(depth)

	u0 := e.cols[0]
	for j := 0; j < depth; j++ {
		var ghosts ghostLevel // the last level recomputes nothing
		if j < depth-1 {
			ghosts = dx.levels[j]
		}
		sp := e.Tr.Begin(obs.PhaseSpMV)
		e.mulRows(levels[j], e.lo, e.hi, scale, inv)
		off := 0
		for _, g := range ghosts.runs {
			var ginv []float64
			if fold {
				ginv = g.inv
			}
			e.mulRows(dx.ghostR[off:], g.Lo, g.Hi, scale, ginv)
			off += g.Hi - g.Lo
		}
		e.BookProducts(sp, 1, e.flops+ghosts.flops)

		u := levels[j]
		switch {
		case fold:
			e.BookPC(obs.Span{}, engine.PCFlops(e.pc), true)
		case dstU != nil:
			u = dstU[j]
			e.ApplyPC(u, dstR[j])
		}
		if j == depth-1 {
			break
		}
		copy(u0[e.lo:e.hi], u)
		off = 0
		for _, g := range ghosts.runs {
			r := dx.ghostR[off : off+g.Hi-g.Lo]
			if !fold && dstU != nil && g.inv != nil {
				vec.MulInto(u0[g.Lo:g.Hi], r, g.inv)
			} else {
				copy(u0[g.Lo:g.Hi], r)
			}
			off += len(r)
		}
	}
	return true
}
