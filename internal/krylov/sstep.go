package krylov

import (
	"errors"
	"math"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/scalarwork"
	"repro/internal/vec"
)

// sstepConfig selects one member of the s-step CG family. All five paper
// algorithms (2-7) are instances of the same iteration skeleton:
//
//	            classical(r=b-Ax)   recurrence residual     pipelined
//	SCG   (A2)        yes                  -                    -
//	PSCG  (A3)        yes                  -                    -
//	SCGS  (A4)         -                  yes                   -
//	PIPESCG (A5)       -                  yes                  yes
//	PIPEPSCG(A6/7)     -                  yes                  yes
type sstepConfig struct {
	name      string
	pipelined bool // non-blocking allreduce overlapped with the power kernels
	classical bool // recompute r = b - A·x each outer iteration (the extra SPMV)
	precond   bool
	// extraBytesPerOuter models method-specific overhead streams (used by
	// the PIPECG3 stand-in; see its doc comment).
	extraBytesPerOuter float64
}

// sstepState owns the vectors of one s-step solve.
type sstepState struct {
	e    engine.Engine
	s, n int
	cfg  sstepConfig

	x []float64
	// powU[j] = (M⁻¹A)^j u and powR[j] = (AM⁻¹)^j r = M·powU[j].
	powU, powR [][]float64
	// Direction block and its operator images: aqU[k] = (M⁻¹A)^{k+1}·Q in
	// u-space, aqR[k] = M·aqU[k] in r-space. Blocking variants carry only
	// k=0; the pipelined variants carry k=0..s (the paper's AQm/AQ2m "matrix
	// of matrices"). Each block is updated in place every outer iteration —
	// between iterations it holds the previous directions, the paper's P —
	// so there is no even/odd double buffer. The r-space image of Q itself
	// is never read and is not carried.
	qU       vec.Multi
	aqU, aqR []vec.Multi

	// One space. When M is diagonal (Engine.PCDiagonal; M = I for the
	// unpreconditioned methods) r = D·u row by row, so only the u-space
	// vectors are kept: aqR is nil and every r-space operand of the payload
	// is a D-weighted dot of u-space vectors (weight d, nil for M = I). powR
	// aliases powU for M = I; for a diagonal M it is nil — each power is one
	// pass, the product with M⁻¹ folded into its write-back
	// (Engine.SpMVFusedDots with pc set) — and res is the scratch residual
	// the recompute hands to ApplyPC. Otherwise (twin space) powR and aqR
	// are carried by their own recurrences.
	d   []float64
	res []float64

	pay scalarwork.Payload
	buf []float64
	sw  *scalarwork.State

	// sigma scales the monomial Krylov basis: powU[j] holds (M⁻¹A/σ)^j·u,
	// keeping the Gram matrices' dynamic range bounded so higher s values
	// stay numerically viable. σ is a setup-time estimate of λmax(M⁻¹A),
	// identical on every rank (computed through engine reductions).
	sigma float64

	// Fused-dot side channel: computePowers with fuse set folds moment
	// entries into the SPMV sweep (Engine.SpMVFusedDots); the next dot sweep
	// consumes the muVal entries flagged by muMask and clears the mask.
	muVal  []float64
	muMask []bool
	fws    [][]float64 // ws scratch for the fused kernel (≤ 2 entries)
	fdots  []float64

	// sweep is the fused LC + dot pass over the solve's vectors: queueLCs
	// and queueDots fill its lists, runSweep executes and clears them.
	// xAlpha = α/σ and negAlpha = −α are the iteration's LC coefficients.
	sweep            vec.Sweep
	xAlpha, negAlpha []float64
}

func newSStepState(e engine.Engine, opt Options, cfg sstepConfig) *sstepState {
	s, n := opt.S, e.NLocal()
	st := &sstepState{e: e, s: s, n: n, cfg: cfg, sigma: 1}
	st.x = zerosLike(n, opt.X0)

	nPow := s + 1
	nBlocks := 1
	if cfg.pipelined {
		nPow = 2*s + 1
		nBlocks = s + 1
	}
	allocPow := func() [][]float64 {
		v := make([][]float64, nPow)
		for j := range v {
			v[j] = make([]float64, n)
		}
		return v
	}
	allocBlocks := func() []vec.Multi {
		v := make([]vec.Multi, nBlocks)
		for k := range v {
			v[k] = vec.NewMulti(n, s)
		}
		return v
	}
	st.powU = allocPow()
	st.qU = vec.NewMulti(n, s)
	st.aqU = allocBlocks()
	d, diagonal := e.PCDiagonal()
	switch {
	case !cfg.precond:
		st.powR = st.powU
	case diagonal:
		st.d = d
		st.res = make([]float64, n)
	default:
		st.powR = allocPow()
		st.aqR = allocBlocks()
	}

	st.pay = scalarwork.Payload{S: s, Extras: 2}
	st.buf = make([]float64, st.pay.Len())
	st.sw = scalarwork.NewState(s)

	st.muVal = make([]float64, 2*s)
	st.muMask = make([]bool, 2*s)
	st.fws = make([][]float64, 0, 2)
	st.fdots = make([]float64, 2)

	st.xAlpha = make([]float64, s)
	st.negAlpha = make([]float64, s)
	return st
}

// computePowers fills powR[j] = A·powU[j-1]/σ (SPMV) and, when
// preconditioned, powU[j] = M⁻¹·powR[j] (PC) for j in [lo, hi] — in one
// space, powU[j] = M⁻¹·A·powU[j-1]/σ in one folded pass, the product never
// stored. The σ basis scale rides the SPMV write-back (one multiply on the
// accumulated row sum — the same flops as the separate vec.Scale pass,
// bit-identical, minus one full memory sweep). With fuse set, the moment
// entries whose operands are the SPMV's own source and product — mu[2j-1] =
// ⟨powU[j-1], powR[j]⟩ always, plus the self-dot mu[2j] = ⟨powR[j],
// powR[j]⟩ when the basis is unpreconditioned (powU aliases powR) — fold
// into the same pass, dotting each chunk of the product while it is
// cache-hot; the next dot sweep consumes them through the muVal/muMask side
// channel. Fuse is only set on ranges that feed the next dot sweep (powers
// 1..s); the pipelined overlap range s+1..2s computes powers the current
// payload never dots, and that range is offered whole to the engine's matrix
// powers kernel, which either produces the same bits in one message round or
// declines.
func (st *sstepState) computePowers(lo, hi int, fuse bool) {
	scale := 1.0
	if st.sigma != 1 {
		scale = 1 / st.sigma
	}
	fold := st.cfg.precond && st.powR == nil
	if !fuse {
		var dstR, dstU [][]float64
		if st.powR != nil {
			dstR = st.powR[lo : hi+1]
		}
		if st.cfg.precond {
			dstU = st.powU[lo : hi+1]
		}
		if st.e.SpMVPowers(dstR, dstU, st.powU[lo-1], scale) {
			if scale != 1 {
				st.e.Charge(float64(st.n*(hi-lo+1)), 0) // the scales' flops
			}
			return
		}
	}
	for j := lo; j <= hi; j++ {
		ws := st.fws[:0]
		if fuse {
			ws = append(ws, st.powU[j-1])
			if !st.cfg.precond && 2*j < 2*st.s {
				ws = append(ws, nil)
			}
		}
		dst := st.powU[j]
		if !fold {
			dst = st.powR[j]
		}
		if fold || len(ws) > 0 || scale != 1 {
			dots := st.fdots[:len(ws)]
			st.e.SpMVFusedDots(dst, st.powU[j-1], scale, fold, ws, dots)
			if scale != 1 {
				// The scale's flops; its memory sweep is absorbed by the SPMV.
				st.e.Charge(float64(st.n), 0)
			}
			if len(ws) > 0 {
				st.muVal[2*j-1] = dots[0]
				st.muMask[2*j-1] = true
				if len(ws) > 1 {
					st.muVal[2*j] = dots[1]
					st.muMask[2*j] = true
				}
			}
		} else {
			st.e.SpMV(dst, st.powU[j-1])
		}
		if st.cfg.precond && !fold {
			st.e.ApplyPC(st.powU[j], st.powR[j])
		}
	}
}

// estimateSigma runs a few power iterations of M⁻¹A through the engine's
// kernels and reductions, so every rank derives the same basis scale.
func (st *sstepState) estimateSigma(b []float64) {
	e, n := st.e, st.n
	v := make([]float64, n)
	t := make([]float64, n)
	w := make([]float64, n)
	if st.s <= 3 {
		// Short blocks: the monomial Gram matrices stay well conditioned in
		// double precision without rescaling (validated for s ≤ 3 across
		// the test problems), so the setup kernels are not worth spending —
		// they would dominate short solves with expensive preconditioners.
		return
	}
	copy(v, b)
	lambda := 1.0
	for it := 0; it < 3; it++ {
		switch {
		case st.cfg.precond && st.powR == nil:
			e.SpMVFusedDots(w, v, 1, true, nil, nil)
		case st.cfg.precond:
			e.SpMV(t, v)
			e.ApplyPC(w, t)
		default:
			e.SpMV(w, v)
		}
		sp := e.BeginPhase(obs.PhaseLocalDots)
		buf := []float64{vec.Dot(v, w), vec.Dot(v, v), vec.Dot(w, w)}
		chargeDots(e, n, 3)
		e.EndPhase(sp)
		e.AllreduceSum(buf)
		// A poisoned reduction (e.g. an injected bit-flip surviving into the
		// setup allreduce) can land NaN/Inf in ANY of the three moments, or
		// flip a squared norm negative; every one of them would propagate
		// into lambda or the basis scale. Stop the power iteration on the
		// last sane estimate instead.
		if !isFinite(buf[0]) || !isFinite(buf[1]) || !isFinite(buf[2]) ||
			buf[1] <= 0 || buf[2] <= 0 {
			break
		}
		lambda = math.Abs(buf[0]) / buf[1]
		scale := 1 / math.Sqrt(buf[2])
		sp = e.BeginPhase(obs.PhaseRecurrenceLC)
		for i := range v {
			v[i] = w[i] * scale
		}
		chargeAxpys(e, n, 1)
		e.EndPhase(sp)
	}
	// A modest overestimate is harmless (it only shrinks the basis).
	st.sigma = 1.25 * lambda
	if st.sigma <= 0 || math.IsNaN(st.sigma) || math.IsInf(st.sigma, 0) {
		st.sigma = 1
	}
}

// norm2 selects the squared residual norm from the reduced payload.
func (st *sstepState) norm2(mode NormMode) float64 {
	ex := st.pay.Extra(st.buf)
	switch mode {
	case NormUnpreconditioned:
		return ex[1]
	case NormNatural:
		return st.pay.Mu(st.buf)[0]
	default:
		return ex[0]
	}
}

// queueLCs adds one outer iteration's recurrence LCs to the pending sweep:
// Q = K + P·B and AQm[k] = (M⁻¹A)^{k+1}K + APm[k]·B on the in-place blocks,
// x += Q·(α/σ), and — with advance set — the residual-power recurrences
// pow[k] −= AQm[k]·(σ·α_true) for every maintained image block (k = 0 for
// Alg. 4; k = 0..s for the pipelined Alg. 5/6). σ·α_true is exactly the
// solved coeffs.Alpha, so negAlpha needs no extra scaling. Each image block
// reads powers k+1..k+s, all of which the sweep advances only after every
// block of the same rows is formed. In one space only the u-space blocks and
// powers are advanced.
func (st *sstepState) queueLCs(b []float64, advance bool) {
	s, sw := st.s, &st.sweep
	sw.Blocks = append(sw.Blocks, vec.BlockLC{Dst: st.qU, Base: st.powU[:s], B: b})
	sw.Updates = append(sw.Updates, vec.ColumnLC{Y: st.x, Cols: st.qU, Coef: st.xAlpha})
	for k := range st.aqU {
		sw.Blocks = append(sw.Blocks, vec.BlockLC{Dst: st.aqU[k], Base: st.powU[k+1 : k+1+s], B: b})
		if advance {
			sw.Updates = append(sw.Updates, vec.ColumnLC{Y: st.powU[k], Cols: st.aqU[k], Coef: st.negAlpha})
		}
		if st.aqR != nil {
			sw.Blocks = append(sw.Blocks, vec.BlockLC{Dst: st.aqR[k], Base: st.powR[k+1 : k+1+s], B: b})
			if advance {
				sw.Updates = append(sw.Updates, vec.ColumnLC{Y: st.powR[k], Cols: st.aqR[k], Coef: st.negAlpha})
			}
		}
	}
}

// queueDots adds the fused reduction payload to the pending sweep: moments
// ⟨u_a, r_b⟩, cross-Gram ⟨AQr[0][k], u_j⟩, Pᵀr, ‖u‖² and ‖r‖², each entry
// bit-identical to its separate vec.Dot (same chunk geometry, same fold
// order) on the vectors as the sweep's LCs leave them. In one space every
// r-space operand is the D-weighted u-space vector (r_b = D·u_b, ‖r‖² =
// ‖D·u‖²). Moment entries already produced inside a fused SPMV (muMask) are
// consumed by runSweep, not recomputed.
func (st *sstepState) queueDots() {
	s, sw := st.s, &st.sweep
	// rDot is ⟨r-space image of x, y⟩ for the u-space x with twin xR (read
	// only in twin space).
	rDot := func(x, xR, y []float64, out int) vec.DotPair {
		if st.aqR == nil {
			return vec.DotPair{X: x, W: st.d, Y: y, Out: out}
		}
		return vec.DotPair{X: xR, Y: y, Out: out}
	}
	powR := st.powR
	if powR == nil {
		powR = st.powU // one space: no twins to name
	}
	for m := 0; m < 2*s; m++ {
		if st.muMask[m] {
			continue
		}
		a := m / 2
		sw.Dots = append(sw.Dots, rDot(st.powU[m-a], powR[m-a], st.powU[a], m))
	}
	cOff, gpOff, exOff := st.pay.OffC(), st.pay.OffGP(), st.pay.OffExtra()
	for k := 0; k < s; k++ {
		var aqR []float64 // the twin, when carried
		if st.aqR != nil {
			aqR = st.aqR[0][k]
		}
		for j := 0; j < s; j++ {
			sw.Dots = append(sw.Dots, rDot(st.aqU[0][k], aqR, st.powU[j], cOff+k*s+j))
		}
	}
	for j := 0; j < s; j++ {
		sw.Dots = append(sw.Dots, rDot(st.powU[0], powR[0], st.qU[j], gpOff+j))
	}
	sw.Dots = append(sw.Dots,
		vec.DotPair{X: st.powU[0], Y: st.powU[0], Out: exOff},
		rDot(st.powU[0], powR[0], nil, exOff+1))
}

// runSweep executes the queued LCs and dots as one pass — one parallel
// region — charges their work, and clears the queue. A sweep that carries
// LCs is traced as recurrence_lc, a dots-only sweep as gram. When both ride
// one pass the dots' wall time falls inside the recurrence_lc span; the span
// closes after the pass and a short gram span covers finishing the payload
// and its charge, so every outer iteration of every variant still shows that
// the rank formed its dot products.
func (st *sstepState) runSweep() {
	s, n, sw := st.s, st.n, &st.sweep
	blocks, dots := len(sw.Blocks), len(sw.Dots)
	phase := obs.PhaseGram
	if blocks > 0 {
		phase = obs.PhaseRecurrenceLC
	}
	sp := st.e.BeginPhase(phase)
	if blocks > 0 {
		// Each block costs one copy sweep plus s² axpys sharing the
		// destination traffic: charge the axpys and one read of the base.
		// Then x += Q·α, and s axpys per advanced residual power.
		st.e.Charge(2*float64(n*blocks*s*s), float64(n*blocks)*(8*float64(s)+16*float64(s*s)))
		chargeAxpys(st.e, n, s)
		if adv := len(sw.Updates) - 1; adv > 0 {
			chargeAxpys(st.e, n, adv*s)
		}
	}
	if dots == 0 {
		sw.Run(n, nil)
	} else {
		sw.Run(n, st.buf)
		if blocks > 0 {
			st.e.EndPhase(sp)
			sp = st.e.BeginPhase(obs.PhaseGram)
		}
		mu := st.pay.Mu(st.buf)
		nFused := 0
		for m, fused := range st.muMask {
			if fused {
				mu[m] = st.muVal[m]
				st.muMask[m] = false
				nFused++
			}
		}
		chargeDots(st.e, n, dots)
		nWeighted := 0
		for _, d := range sw.Dots {
			if d.W != nil {
				nWeighted++
			}
		}
		if nWeighted > 0 {
			// A weighted dot's row scale: one multiply and the weight's stream.
			st.e.Charge(float64(n*nWeighted), 8*float64(n*nWeighted))
		}
		if nFused > 0 {
			// The fused dots' multiply-adds; the SPMV pass absorbed the
			// product vector's read, leaving one operand stream per dot.
			st.e.Charge(2*float64(n*nFused), 8*float64(n*nFused))
		}
	}
	sw.Blocks, sw.Updates, sw.Dots = sw.Blocks[:0], sw.Updates[:0], sw.Dots[:0]
	st.e.EndPhase(sp)
}

// recomputeResidual sets r = b − A·x and u = M⁻¹r (powers 0) from the
// current iterate.
func (st *sstepState) recomputeResidual(b []float64) {
	r := st.res
	if st.powR != nil {
		r = st.powR[0]
	}
	st.e.SpMV(r, st.x)
	sp := st.e.BeginPhase(obs.PhaseRecurrenceLC)
	vec.Sub(r, b, r)
	chargeAxpys(st.e, st.n, 1)
	st.e.EndPhase(sp)
	if st.cfg.precond {
		st.e.ApplyPC(st.powU[0], r)
	}
}

// reduce sends the packed payload: blocking, or — pipelined — posted and
// overlapped with the s SPMVs (+ s PCs) that build powers s+1..2s, which
// only the next iteration's recurrences need.
func (st *sstepState) reduce() engine.Request {
	if !st.cfg.pipelined {
		st.e.AllreduceSum(st.buf)
		return nil
	}
	req := st.e.IallreduceSum(st.buf)
	st.computePowers(st.s+1, 2*st.s, false)
	return req
}

// bootstrap seeds the basis from the current iterate: r0 = b − A·x0,
// u0 = M⁻¹r0, powers 1..s, dots, first reduction. The same sequence re-seeds
// the solve after a basis breakdown.
func (st *sstepState) bootstrap(b []float64) engine.Request {
	st.recomputeResidual(b)
	st.computePowers(1, st.s, true)
	st.queueDots()
	st.runSweep()
	return st.reduce()
}

// advance runs the vector work of one outer iteration for the solved
// coefficients and returns the reduction it posted (nil when blocking).
// recompute replaces the recurrence residual by r = b − A·x (the extra SPMV
// of Alg. 2/3, or a residual replacement).
func (st *sstepState) advance(b []float64, co scalarwork.Coeffs, recompute bool) engine.Request {
	// The payload's moment and cross-Gram entries carry a uniform 1/σ
	// relative to the scaled-basis Grams (each operator application
	// contributes one 1/σ), so the solved step is σ·α. Dividing once here
	// restores the true basis coefficients for x; the residual-power
	// recurrence uses σ·α_true = co.Alpha directly.
	for l, a := range co.Alpha {
		st.xAlpha[l] = a / st.sigma
		st.negAlpha[l] = -a
	}
	st.queueLCs(co.B, !recompute)
	if recompute || !st.cfg.pipelined {
		// The powers 1..s the dots need are rebuilt with SPMVs (+PCs) from
		// the advanced (Alg. 4) or recomputed residual, so the LCs and the
		// dots cannot share a sweep.
		st.runSweep()
		if recompute {
			st.recomputeResidual(b)
		}
		st.computePowers(1, st.s, true)
	}
	st.queueDots()
	st.runSweep()
	if st.cfg.extraBytesPerOuter > 0 {
		st.e.Charge(0, st.cfg.extraBytesPerOuter)
	}
	return st.reduce()
}

// maxRecoveries caps each in-solver recovery path of one solve.
const maxRecoveries = 8

// recoveryBudget gates one recovery path: at most maxRecoveries uses, each
// only at a relative residual 1 % below the previous use's (last starts at
// +Inf), so a hard accuracy floor still terminates the run.
type recoveryBudget struct {
	used int
	last float64
}

// take reports whether the path may recover at rel, and spends a use if so.
func (rb *recoveryBudget) take(rel float64) bool {
	if rb.used == maxRecoveries || !(rel < 0.99*rb.last) {
		return false
	}
	rb.used, rb.last = rb.used+1, rel
	return true
}

// solveSStep is the shared skeleton of the s-step family.
func solveSStep(e engine.Engine, b []float64, opt Options, cfg sstepConfig) (*Result, error) {
	if opt.S < 1 {
		return nil, errors.New("krylov: s-step methods need S ≥ 1")
	}
	s := opt.S
	st := newSStepState(e, opt, cfg)
	mon := newMonitor(e, b, opt)
	mon.x = st.x
	res := &Result{Method: cfg.name, X: st.x}
	st.estimateSigma(b)

	// The pipelined variants overlap powers s+1..2s with the reduction.
	req := st.bootstrap(b)

	// Three recovery paths share recovered: the breakdown restart (a
	// singular Gram matrix) reseeds from the current iterate, the guard
	// recovery (a divergence or stagnation stop under opt.recover) from the
	// best one, each under its own budget; a comm-detected corruption only
	// forces the next advance through a residual replacement.
	restarts, guards := recoveryBudget{last: math.Inf(1)}, recoveryBudget{last: math.Inf(1)}
	corruptSeen := e.Counters().CommCorruptions
	forceReplace := false

	// Best-iterate safeguard: s-step recurrences can diverge past their
	// attainable accuracy on ill-conditioned systems (§V of the paper);
	// when the run stops without converging, hand back the best iterate.
	bestX := make([]float64, st.n)
	bestRel := math.Inf(1)

	// recovered records one recovery event under a recovery span; with
	// reseed set it rebuilds the basis from the current iterate — restored
	// to the best one, guards re-armed there, with restore set — and
	// bootstrap's true residual makes that a residual replacement.
	recovered := func(reseed, restore bool) {
		sp := e.BeginPhase(obs.PhaseRecovery)
		c := e.Counters()
		c.Recoveries++
		if reseed {
			c.ResidualReplacements++
			if restore {
				mon.rearm(bestRel)
				copy(st.x, bestX)
			}
			st.sw.Reset()
			st.qU.Zero()
			for k := range st.aqU {
				st.aqU[k].Zero()
			}
			for k := range st.aqR {
				st.aqR[k].Zero()
			}
		}
		e.EndPhase(sp)
		if reseed {
			req = st.bootstrap(b)
		}
	}

	for res.Iterations < opt.MaxIter {
		if cfg.pipelined {
			if err := waitReduce(req, opt.WaitDeadline); err != nil {
				res.RelRes = mon.relres()
				res.History = mon.hist
				return res, err
			}
		}
		stop, conv := mon.check(math.Sqrt(math.Abs(st.norm2(opt.Norm))), res.Iterations)
		if rel := mon.relres(); rel < bestRel {
			bestRel = rel
			copy(bestX, st.x)
		}
		if stop {
			if !conv && opt.recover && (mon.diverged || mon.stagnat) && guards.take(bestRel) {
				// Graceful degradation instead of a hard stop.
				recovered(true, true)
				continue
			}
			res.Converged = conv
			res.Stagnated = mon.stagnat
			res.Diverged = mon.diverged
			break
		}

		// A comm-detected corruption event (checksum failure) taints the
		// recurrence state even after the payload was repaired downstream;
		// under the recovery policy the next residual advance is forced
		// through the classical r = b − A·x path.
		if opt.recover {
			if cc := e.Counters().CommCorruptions; cc > corruptSeen {
				corruptSeen = cc
				forceReplace = true
				recovered(false, false)
			}
		}

		coeffs, err := st.sw.Step(st.pay, st.buf)
		if err != nil {
			if errors.Is(err, scalarwork.ErrBreakdown) {
				if restarts.take(mon.relres()) {
					// Still making progress: rebuild the basis from the
					// current iterate and continue.
					recovered(true, false)
					continue
				}
				res.BrokeDown = true
				break
			}
			return res, err
		}
		// Periodic residual replacement forces the classical recompute path
		// for this outer iteration.
		replacePeriod := 0
		if opt.ReplaceEvery > 0 {
			replacePeriod = (opt.ReplaceEvery + s - 1) / s
		}
		replace := replacePeriod > 0 && res.Outer > 0 && res.Outer%replacePeriod == 0
		if forceReplace {
			replace = true
			forceReplace = false
			if !cfg.classical {
				e.Counters().ResidualReplacements++
			}
		}
		req = st.advance(b, coeffs, cfg.classical || replace)
		res.Iterations += s
		res.Outer++
	}

	if !res.Converged && bestRel < math.Inf(1) && bestRel < mon.relres() {
		copy(st.x, bestX)
		res.RelRes = bestRel
	} else {
		res.RelRes = mon.relres()
	}
	res.History = mon.hist
	e.Counters().Iterations = res.Iterations
	return res, nil
}

// SCG is the classical s-step conjugate gradient method of Chronopoulos &
// Gear (the paper's Algorithm 2): one blocking allreduce and s+1 SPMVs per
// outer iteration (each outer iteration advances s CG steps).
func SCG(e engine.Engine, b []float64, opt Options) (*Result, error) {
	return solveSStep(e, b, opt, sstepConfig{name: "scg", classical: true})
}

// PSCG is the preconditioned s-step CG (Algorithm 3): one blocking allreduce,
// s+1 SPMVs and s+1 PCs per outer iteration.
func PSCG(e engine.Engine, b []float64, opt Options) (*Result, error) {
	return solveSStep(e, b, opt, sstepConfig{name: "pscg", classical: true, precond: true})
}

// SCGS is sCG with s SPMVs (Algorithm 4) — the paper's first step: the
// residual and the direction images advance by recurrence linear
// combinations, removing the extra SPMV, but the allreduce still blocks.
func SCGS(e engine.Engine, b []float64, opt Options) (*Result, error) {
	return solveSStep(e, b, opt, sstepConfig{name: "scg-s"})
}

// PIPESCG is the pipelined s-step CG (Algorithm 5): one non-blocking
// allreduce per outer iteration (= per s CG steps) overlapped with the s
// SPMVs that build residual powers s+1..2s.
func PIPESCG(e engine.Engine, b []float64, opt Options) (*Result, error) {
	return solveSStep(e, b, opt, sstepConfig{name: "pipe-scg", pipelined: true})
}

// PIPEPSCG is the pipelined preconditioned s-step CG (Algorithms 6+7) — the
// paper's headline method: one non-blocking allreduce per s iterations
// overlapped with s PCs and s SPMVs, working with preconditioned,
// unpreconditioned or natural residual norms at no extra kernel cost.
func PIPEPSCG(e engine.Engine, b []float64, opt Options) (*Result, error) {
	return solveSStep(e, b, opt, sstepConfig{name: "pipe-pscg", pipelined: true, precond: true})
}
