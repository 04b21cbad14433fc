package krylov

import (
	"math"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/vec"
)

// This file implements the stability-aware pipelined variant family of
// Chen et al. ("Predict-and-recompute conjugate gradient variants") in the
// preconditioned, engine-seam form the rest of the package uses:
//
//	PIPEPRCG  pipelined predict-and-recompute CG: ν = (z, r) is *predicted*
//	          from the previous iteration's dots to form β early, then
//	          recomputed exactly inside the same fused reduction that also
//	          carries the other inner products — one non-blocking allreduce
//	          per iteration, overlapped with the SPMVs, with none of the
//	          multi-term recurrence drift that limits PIPECG's attainable
//	          accuracy.
//	PIPEMCGRR pipelined Meurant CG with periodic residual replacement: the
//	          cheaper one-overlapped-SPMV pipelined variant, stabilized by
//	          recomputing r = b − A·x (and the vectors derived from it) on
//	          the rk_replace cadence Options.ReplaceEvery (every
//	          DefaultReplaceEvery iterations when unset).
//
// Shared state, in the exemplars' naming generalized to a preconditioner M:
//
//	r = b − A·x     z = M⁻¹r      p  search direction   s = A·p
//	q = M⁻¹s        w = A·z       u = A·q
//
// and the scalar dots μ = (p, s), δ = (z, s), γ = (q, s), ν = (z, r).
// With M = I the recurrences reduce verbatim to the unpreconditioned
// exemplars (z ≡ r, q ≡ s, w ≡ A·r, u ≡ A·s).

// DefaultReplaceEvery is the residual-replacement cadence PIPEMCGRR falls
// back to when ReplaceEvery is not set. PIPEMCGRR
// without replacement is not returned to callers at all: its ν-prediction
// alone is less stable than PIPECG's recurrences, and the replacement IS
// the method.
const DefaultReplaceEvery = 50

// PIPEPRCG is the pipelined predict-and-recompute preconditioned CG.
func PIPEPRCG(e engine.Engine, b []float64, opt Options) (*Result, error) {
	return pipePRCG(e, b, opt, false)
}

// PIPEMCGRR is the pipelined Meurant preconditioned CG with periodic
// residual replacement.
func PIPEMCGRR(e engine.Engine, b []float64, opt Options) (*Result, error) {
	return pipePRCG(e, b, opt, true)
}

// replaceCadence resolves the residual-replacement cadence for the variant
// family: ReplaceEvery > 0 as given, else the variant's own default
// (PIPEMCGRR replaces every DefaultReplaceEvery iterations; PIPEPRCG —
// self-stabilizing through its recomputed dots — never, 0).
func replaceCadence(opt Options, meurant bool) int {
	if opt.ReplaceEvery > 0 {
		return opt.ReplaceEvery
	}
	if meurant {
		return DefaultReplaceEvery
	}
	return 0
}

func pipePRCG(e engine.Engine, b []float64, opt Options, meurant bool) (*Result, error) {
	n := e.NLocal()
	mon := newMonitor(e, b, opt)

	x := zerosLike(n, opt.X0)
	mon.x = x
	r := make([]float64, n)
	z := make([]float64, n)
	w := make([]float64, n)
	p := make([]float64, n)
	s := make([]float64, n)
	q := make([]float64, n)
	u := make([]float64, n)

	method := "pipe-pr-cg"
	if meurant {
		method = "pipe-m-cg-rr"
	}
	replaceEvery := replaceCadence(opt, meurant)

	// Setup: r0 = b − A·x0; z0 = M⁻¹r0; p0 = z0; s0 = A·p0; w0 = A·z0 = s0;
	// q0 = M⁻¹s0; u0 = A·q0 — then one blocking reduction for the dots.
	e.SpMV(r, x)
	sp := e.BeginPhase(obs.PhaseRecurrenceLC)
	vec.Sub(r, b, r)
	chargeAxpys(e, n, 1)
	e.EndPhase(sp)
	e.ApplyPC(z, r)
	sp = e.BeginPhase(obs.PhaseRecurrenceLC)
	vec.Copy(p, z)
	chargeCopies(e, n, 1)
	e.EndPhase(sp)
	e.SpMV(s, p)
	sp = e.BeginPhase(obs.PhaseRecurrenceLC)
	vec.Copy(w, s)
	chargeCopies(e, n, 1)
	e.EndPhase(sp)
	e.ApplyPC(q, s)
	e.SpMV(u, q)

	buf := make([]float64, 5)
	localPRDots(e, buf, opt.Norm, p, s, z, q, r)
	e.AllreduceSum(buf)
	mu, del, gam, nu := buf[0], buf[1], buf[2], buf[3]
	norm := math.Sqrt(math.Abs(buf[4]))

	res := &Result{Method: method, X: x}
	for i := 0; i < opt.MaxIter; i++ {
		if stop, conv := mon.check(norm, i); stop {
			res.Converged = conv
			res.Stagnated = mon.stagnat
			res.Diverged = mon.diverged
			break
		}
		alpha := nu / mu

		// Recurrence updates: x, r, z, w advance along p, s, q, u.
		sp = e.BeginPhase(obs.PhaseRecurrenceLC)
		vec.Axpy(x, alpha, p)
		vec.Axpy(r, -alpha, s)
		vec.Axpy(z, -alpha, q)
		vec.Axpy(w, -alpha, u)
		chargeAxpys(e, n, 4)
		e.EndPhase(sp)

		if replaceEvery > 0 && (i+1)%replaceEvery == 0 {
			// Residual replacement: recompute r = b − A·x, z = M⁻¹r, and the
			// operator images s = A·p, w = A·z from scratch, discarding the
			// accumulated recurrence rounding error. ν below is then
			// predicted from exact pre-replacement dots against replaced
			// vectors — the exemplars accept that one-iteration mismatch;
			// the recomputed dots at the end of this iteration resynchronize.
			e.SpMV(r, x)
			sp = e.BeginPhase(obs.PhaseRecurrenceLC)
			vec.Sub(r, b, r)
			chargeAxpys(e, n, 1)
			e.EndPhase(sp)
			e.ApplyPC(z, r)
			e.SpMV(s, p)
			e.SpMV(w, z)
			e.Counters().ResidualReplacements++
		}

		// Predict ν' = (z', r') from the current dots, use it ONLY for β.
		// pr: ν' = ν − 2α·δ + α²·γ (exact in exact arithmetic);
		// m:  ν' = −ν + α²·γ      (Meurant's cheaper two-term form).
		nuPred := nu - 2*alpha*del + alpha*alpha*gam
		if meurant {
			nuPred = -nu + alpha*alpha*gam
		}
		beta := nuPred / nu

		// p = z + β·p; s = w + β·s (the recurrence that makes s track A·p
		// without an extra SPMV).
		sp = e.BeginPhase(obs.PhaseRecurrenceLC)
		vec.Axpby(p, 1, z, beta)
		vec.Axpby(s, 1, w, beta)
		chargeAxpys(e, n, 2)
		e.EndPhase(sp)

		// q = M⁻¹s must precede the dot batch (γ = (q, s) rides the fused
		// reduction); the SPMVs u = A·q and — for pr — the recompute
		// w = A·z overlap the posted allreduce.
		e.ApplyPC(q, s)
		localPRDots(e, buf, opt.Norm, p, s, z, q, r)
		req := e.IallreduceSum(buf)

		e.SpMV(u, q)
		if !meurant {
			// Predict-and-recompute: w = A·z recomputed every iteration,
			// hidden behind the same reduction.
			e.SpMV(w, z)
		}

		if err := waitReduce(req, opt.WaitDeadline); err != nil {
			res.History = mon.hist
			res.RelRes = mon.relres()
			return res, err
		}
		mu, del, gam, nu = buf[0], buf[1], buf[2], buf[3]
		norm = math.Sqrt(math.Abs(buf[4]))
		res.Iterations++
	}
	res.Outer = res.Iterations
	res.History = mon.hist
	res.RelRes = mon.relres()
	e.Counters().Iterations = res.Iterations
	return res, nil
}

// localPRDots fills the fused 5-slot reduction buffer with the rank-local
// partial dots of the predict-and-recompute family:
//
//	buf[0] = μ = (p, s)   buf[1] = δ = (z, s)   buf[2] = γ = (q, s)
//	buf[3] = ν = (z, r)   buf[4] = the squared norm term for opt.Norm
//
// The natural norm √(r, M⁻¹r) reuses ν with no extra dot product.
func localPRDots(e engine.Engine, buf []float64, mode NormMode, p, s, z, q, r []float64) {
	n := len(r)
	sp := e.BeginPhase(obs.PhaseLocalDots)
	buf[0] = vec.Dot(p, s)
	buf[1] = vec.Dot(z, s)
	buf[2] = vec.Dot(q, s)
	buf[3] = vec.Dot(z, r)
	dots := 4
	switch mode {
	case NormUnpreconditioned:
		buf[4] = vec.Dot(r, r)
		dots++
	case NormNatural:
		buf[4] = buf[3]
	default:
		buf[4] = vec.Dot(z, z)
		dots++
	}
	chargeDots(e, n, dots)
	e.EndPhase(sp)
}
