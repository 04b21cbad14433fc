package krylov

import (
	"math"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/vec"
)

// GROPPCG is Gropp's asynchronous conjugate gradient variant (the
// KSPGROPPCG baseline in PETSc, contemporary with the paper's related work):
// each iteration posts two non-blocking allreduces, hiding the (p, s)
// reduction behind the preconditioner application and the (r, u) reduction
// behind the SPMV. It sits between PCG (three exposed reductions) and
// PIPECG (one reduction hidden behind both kernels), and is included here
// as an additional baseline beyond the paper's Table I.
func GROPPCG(e engine.Engine, b []float64, opt Options) (*Result, error) {
	n := e.NLocal()
	mon := newMonitor(e, b, opt)

	x := zerosLike(n, opt.X0)
	mon.x = x
	r := make([]float64, n)
	u := make([]float64, n)
	p := make([]float64, n)
	s := make([]float64, n)
	q := make([]float64, n)
	w := make([]float64, n)

	// r0 = b - A·x0; u0 = M⁻¹r0; p0 = u0; s0 = A·p0; γ0 = (r0, u0).
	e.SpMV(r, x)
	sp := e.BeginPhase(obs.PhaseRecurrenceLC)
	vec.Sub(r, b, r)
	chargeAxpys(e, n, 1)
	e.EndPhase(sp)
	e.ApplyPC(u, r)
	copy(p, u)
	e.SpMV(s, p)
	// Fold the initial norm term into the γ0 setup reduction (one extra word,
	// no extra collective) so the monitor sees the residual of x0 at
	// iteration 0 — the same initial check every other method records. An x0
	// already inside the tolerance converges without running an iteration.
	sp = e.BeginPhase(obs.PhaseLocalDots)
	gBuf := []float64{vec.Dot(r, u), normTermPCG(opt.Norm, u, r, 0)}
	if opt.Norm == NormNatural {
		gBuf[1] = gBuf[0]
	}
	chargeDots(e, n, 2)
	e.EndPhase(sp)
	e.AllreduceSum(gBuf)
	gamma := gBuf[0]

	res := &Result{Method: "groppcg", X: x}
	if stop, conv := mon.check(math.Sqrt(math.Abs(gBuf[1])), 0); stop {
		res.Converged = conv
		res.Diverged = mon.diverged
		res.History = mon.hist
		res.RelRes = mon.relres()
		return res, nil
	}
	buf := make([]float64, 2)
	for i := 0; i < opt.MaxIter; i++ {
		// δ = (p, s), hidden behind q = M⁻¹·s.
		sp = e.BeginPhase(obs.PhaseLocalDots)
		buf[0] = vec.Dot(p, s)
		chargeDots(e, n, 1)
		e.EndPhase(sp)
		req := e.IallreduceSum(buf[:1])
		e.ApplyPC(q, s)
		if err := waitReduce(req, opt.WaitDeadline); err != nil {
			res.History = mon.hist
			res.RelRes = mon.relres()
			return res, err
		}
		delta := buf[0]

		alpha := gamma / delta
		sp = e.BeginPhase(obs.PhaseRecurrenceLC)
		vec.Axpy(x, alpha, p)
		vec.Axpy(r, -alpha, s)
		vec.Axpy(u, -alpha, q)
		chargeAxpys(e, n, 3)
		e.EndPhase(sp)

		// γ' = (r, u) and the norm term, hidden behind w = A·u.
		sp = e.BeginPhase(obs.PhaseLocalDots)
		buf[0] = vec.Dot(r, u)
		buf[1] = normTermPCG(opt.Norm, u, r, buf[0])
		chargeDots(e, n, 2)
		e.EndPhase(sp)
		req = e.IallreduceSum(buf)
		e.SpMV(w, u)
		if err := waitReduce(req, opt.WaitDeadline); err != nil {
			res.History = mon.hist
			res.RelRes = mon.relres()
			return res, err
		}
		gammaNew := buf[0]

		res.Iterations++
		if stop, conv := mon.check(math.Sqrt(math.Abs(buf[1])), res.Iterations); stop {
			res.Converged = conv
			res.Diverged = mon.diverged
			break
		}

		beta := gammaNew / gamma
		gamma = gammaNew
		sp = e.BeginPhase(obs.PhaseRecurrenceLC)
		vec.Axpby(p, 1, u, beta)
		vec.Axpby(s, 1, w, beta)
		chargeAxpys(e, n, 2)
		e.EndPhase(sp)
	}
	res.Outer = res.Iterations
	res.History = mon.hist
	res.RelRes = mon.relres()
	e.Counters().Iterations = res.Iterations
	return res, nil
}
