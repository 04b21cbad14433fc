// Package krylov implements the paper's contribution and every baseline it
// is evaluated against, all over the engine.Engine runtime abstraction:
//
//	PCG         Hestenes–Stiefel preconditioned CG (Alg. 1; 3 blocking
//	            allreduces per iteration)
//	CGCG        Chronopoulos–Gear single-reduction PCG (refs [3-6]; extra
//	            baseline)
//	GROPPCG     Gropp's asynchronous CG (extra baseline; 2 reductions,
//	            hidden behind PC and SPMV respectively)
//	PIPECG      Ghysels–Vanroose pipelined PCG (1 non-blocking allreduce per
//	            iteration, overlapped with 1 PC + 1 SPMV)
//	PIPECG3     Eller–Gropp-style three-term pipelined PCG (1 allreduce per
//	            2 iterations; see doc on PIPECG3 for the substitution)
//	PIPECGOATI  Tiwari–Vadhiyar PIPECG-OATI (1 allreduce per 2 iterations)
//	SCG         classical s-step CG (Alg. 2; s+1 SPMVs, blocking)
//	PSCG        preconditioned s-step CG (Alg. 3; s+1 SPMVs + s+1 PCs)
//	SCGS        sCG with s SPMVs (Alg. 4; the paper's first contribution)
//	PIPESCG     pipelined s-step CG (Alg. 5; the paper's core contribution)
//	PIPEPSCG    pipelined preconditioned s-step CG (Alg. 6+7)
//	Hybrid      PIPE-PsCG until stagnation, then PIPECG-OATI (§VI-B)
//
// Solvers are SPMD: b and the returned solution are rank-local slices; run
// the same call on every rank of a comm fabric, or once on a seq/sim engine.
//
// Solvers are also pure with respect to the engine seam: every kernel,
// every piece of cross-rank communication, and every globally visible side
// effect flows through the Engine interface — no package-level state, no
// out-of-band channels. Two consumers depend on this contract: the audit
// harness, which swaps backends under a solver and compares bits; and
// internal/blockcg, which interposes a multiplexing engine view to run k
// right-hand sides in lockstep against one shared engine. Changes that route
// data around the Engine interface break both.
package krylov

import (
	"math"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/vec"
)

// Solver is the common signature of every method in this package.
type Solver func(e engine.Engine, b []float64, opt Options) (*Result, error)

// NormMode selects which residual norm the convergence test uses — the
// flexibility the paper highlights for PIPE-PsCG (§IV-C).
type NormMode int

const (
	// NormPreconditioned tests ‖u‖ = ‖M⁻¹r‖ (PETSc's default).
	NormPreconditioned NormMode = iota
	// NormUnpreconditioned tests ‖r‖.
	NormUnpreconditioned
	// NormNatural tests √(r, M⁻¹r).
	NormNatural
)

// String implements fmt.Stringer.
func (n NormMode) String() string {
	switch n {
	case NormPreconditioned:
		return "preconditioned"
	case NormUnpreconditioned:
		return "unpreconditioned"
	case NormNatural:
		return "natural"
	}
	return "unknown"
}

// Options configures a solve. The zero value is NOT usable; use Defaults.
type Options struct {
	RelTol float64 // convergence: ‖·‖ < max(RelTol·‖b‖, AbsTol)
	AbsTol float64
	// MaxIter is the limit in PCG-equivalent iterations. The s-step methods
	// check it once per outer iteration of s, so they may overshoot it by up
	// to s−1; an escalation walk then has no budget left for its next rung.
	MaxIter int
	S       int      // block size for the s-step methods
	Norm    NormMode // which residual norm the test uses
	X0      []float64
	// ReplaceEvery enables periodic residual replacement in the pipelined
	// methods: every ReplaceEvery iterations the recurrence residual (and
	// its derived quantities) is recomputed from r = b - A·x, arresting
	// the rounding drift that makes pipelined variants stagnate above
	// tight tolerances (the Cools–Cornelis–Vanroose remedy the paper's
	// §V alludes to). 0 disables replacement.
	ReplaceEvery int
	// Observe, when non-nil, is invoked after every convergence check with
	// the history point just recorded and a read-only view of the rank-local
	// iterate the checked residual norm corresponds to: the hook a serving
	// layer streams per-iteration events through and an auditor recomputes
	// the true residual ‖b−A·x‖ through. It runs on the solver goroutine
	// between kernels and must be cheap and non-blocking; it must not mutate
	// x and must not call back into the engine — anything it charged or
	// reduced would desynchronize the counter ledger across engines. It may
	// stop the solve by panicking with an engine.Abort, which unwinds to the
	// boundary that started the solve: every solver checks after its posted
	// reduction's Wait, so no reduction is left in flight. On an SPMD
	// runtime every rank calls it, so a process-wide consumer should install
	// it on one rank only.
	Observe func(hp HistPoint, x []float64)

	// recover and stall are a Rung's policy, set by escalate only: recover
	// arms the s-step guard recovery and forced replacement (sstep.go),
	// stall the monitor's stagnation stop.
	recover bool
	stall   stagnation
}

// stagnation is the monitor's stagnation rule: stop once the best relative
// residual of the last window checks is not below factor × the check before
// them. A zero window disables it.
type stagnation struct {
	window int
	factor float64
}

// Defaults returns the options the paper's experiments use: rtol 1e-5, s=3,
// preconditioned norm.
func Defaults() Options {
	return Options{RelTol: 1e-5, AbsTol: 1e-50, MaxIter: 100000, S: 3, Norm: NormPreconditioned}
}

// HistPoint is one convergence-history sample.
type HistPoint struct {
	Iteration int // PCG-equivalent iteration count at the check
	RelRes    float64
	// ReduceIndex is the number of global reductions (blocking plus
	// non-blocking) completed when the check ran. Paired with
	// sim.Engine.Timeline it places the check on the virtual clock —
	// the x-axis of the paper's Fig. 5.
	ReduceIndex int
}

// Result reports a solve.
type Result struct {
	Method     string
	X          []float64 // rank-local solution
	Iterations int       // PCG-equivalent iterations executed
	Outer      int       // outer iterations (equals Iterations for 1-step methods)
	Converged  bool
	Stagnated  bool // stopped by the stagnation detector
	BrokeDown  bool // stopped by a singular s-step Gram matrix
	Diverged   bool // stopped by the divergence guard (residual exploding)
	RelRes     float64
	History    []HistPoint
}

// monitor owns the convergence test ‖·‖ < max(rtol·‖b‖, atol) (§VI-E) and
// the residual history, plus the stagnation detector of Hybrid's first rung.
type monitor struct {
	e          engine.Engine
	rtol, atol float64
	bnorm      float64
	hist       []HistPoint
	converged  bool
	// stagnation detection
	window  int
	factor  float64
	recent  []float64
	stagnat bool
	// divergence guard: stop once the residual has grown divergeFactor
	// beyond the best value seen — the failure mode of s-step recurrences
	// on ill-conditioned systems past their attainable accuracy.
	bestRel  float64
	diverged bool
	// observe is Options.Observe; x is the solver's iterate slice (stable
	// for the whole solve), handed to observe alongside each history point.
	observe func(HistPoint, []float64)
	x       []float64
}

// divergeFactor is how far above its best value the relative residual may
// grow before the run is declared divergent.
const divergeFactor = 1e4

// newMonitor computes ‖b‖ (one setup allreduce) and returns the monitor.
func newMonitor(e engine.Engine, b []float64, opt Options) *monitor {
	sp := e.BeginPhase(obs.PhaseLocalDots)
	buf := []float64{vec.Dot(b, b)}
	chargeDots(e, len(b), 1)
	e.EndPhase(sp)
	e.AllreduceSum(buf)
	return &monitor{
		e:    e,
		rtol: opt.RelTol, atol: opt.AbsTol, bnorm: math.Sqrt(buf[0]),
		window: opt.stall.window, factor: opt.stall.factor,
		observe: opt.Observe,
	}
}

// check records the residual norm at the given iteration and reports whether
// the solve should stop: converged (true, true), stagnated or diverged
// (true, false), or keep going (false, false).
func (m *monitor) check(norm float64, iter int) (stop, converged bool) {
	rel := norm
	if m.bnorm > 0 {
		rel = norm / m.bnorm
	}
	ridx := 0
	if m.e != nil {
		ridx = m.e.Counters().TotalAllreduces()
	}
	m.hist = append(m.hist, HistPoint{Iteration: iter, RelRes: rel, ReduceIndex: ridx})
	if m.observe != nil {
		m.observe(m.hist[len(m.hist)-1], m.x)
	}
	if math.IsNaN(norm) || math.IsInf(norm, 0) {
		m.diverged = true
		return true, false
	}
	if norm < math.Max(m.rtol*m.bnorm, m.atol) {
		m.converged = true
		return true, true
	}
	if m.bestRel == 0 || rel < m.bestRel {
		m.bestRel = rel
	} else if rel > divergeFactor*m.bestRel {
		m.diverged = true
		return true, false
	}
	if m.window > 0 {
		// The buffer holds up to window+1 samples: recent[0] is the baseline
		// from exactly `window` checks ago, recent[1:] are the last `window`
		// checks the detector judges. Trimming happens AFTER the comparison —
		// trimming first (the pre-audit bug) dropped the baseline and compared
		// the window's minimum against its own second-oldest point, i.e. an
		// effective window of window−1 checks.
		if len(m.recent) > m.window {
			copy(m.recent, m.recent[1:])
			m.recent = m.recent[:m.window]
		}
		m.recent = append(m.recent, rel)
		if len(m.recent) == m.window+1 {
			baseline := m.recent[0]
			best := m.recent[1]
			for _, v := range m.recent[2:] {
				if v < best {
					best = v
				}
			}
			// No meaningful progress across the window → stagnated. An
			// improvement of exactly (1 − factor) counts as progress (strict
			// comparison), so the boundary case keeps iterating.
			if best > baseline*m.factor {
				m.stagnat = true
				return true, false
			}
		}
	}
	return false, false
}

func (m *monitor) relres() float64 {
	if len(m.hist) == 0 {
		return math.NaN()
	}
	return m.hist[len(m.hist)-1].RelRes
}

// finish records how the solve stopped on res — the stop flags, the last
// relative residual and the history — and books res.Iterations on the
// engine's counters. Every solver ends through it.
func (m *monitor) finish(res *Result) *Result {
	res.Converged, res.Stagnated, res.Diverged = m.converged, m.stagnat, m.diverged
	res.RelRes, res.History = m.relres(), m.hist
	m.e.Counters().Iterations = res.Iterations
	return res
}

// rearm clears the stop flags after a recovery restart and re-anchors the
// divergence guard and the stagnation window at the restored iterate. A
// non-finite or non-positive rel (a best value harvested from a poisoned
// history) must NOT become the new anchor: the divergence guard would then
// never fire again (every comparison against NaN is false), so the previous
// finite anchor is kept instead.
func (m *monitor) rearm(rel float64) {
	m.diverged, m.stagnat = false, false
	m.recent = m.recent[:0]
	if rel > 0 && isFinite(rel) {
		m.bestRel = rel
	}
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// chargeAxpys accounts k axpy-like updates of length n: 2 flops and 24 bytes
// per element (read x, read+write y).
func chargeAxpys(e engine.Engine, n, k int) {
	e.Charge(2*float64(n*k), 24*float64(n*k))
}

// chargeDots accounts k local dot products of length n.
func chargeDots(e engine.Engine, n, k int) {
	e.Charge(2*float64(n*k), 16*float64(n*k))
}

// chargeCopies accounts k vector copies of length n (1 flop-equivalent set
// to 0; bandwidth only).
func chargeCopies(e engine.Engine, n, k int) {
	e.Charge(0, 16*float64(n*k))
}

// zerosLike returns opt.X0 copied, or a zero vector of length n.
func zerosLike(n int, x0 []float64) []float64 {
	x := make([]float64, n)
	if x0 != nil {
		if len(x0) != n {
			panic("krylov: X0 length does not match local size")
		}
		copy(x, x0)
	}
	return x
}
