package krylov

import (
	"math"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/vec"
)

// CGCG is the Chronopoulos–Gear single-reduction PCG: the classic
// reformulation (also due to Saad, Meurant and D'Azevedo et al., the
// paper's refs [3-5]) that fuses PCG's three dot products into ONE blocking
// allreduce per iteration by carrying w = A·u and updating the scalars with
// recurrences. It is the communication-reduced (but not communication-
// hiding) midpoint between PCG and PIPECG.
func CGCG(e engine.Engine, b []float64, opt Options) (*Result, error) {
	n := e.NLocal()
	mon := newMonitor(e, b, opt)

	x := zerosLike(n, opt.X0)
	mon.x = x
	r := make([]float64, n)
	u := make([]float64, n)
	w := make([]float64, n)
	p := make([]float64, n)
	s := make([]float64, n)

	// r0 = b - A·x0; u0 = M⁻¹r0; w0 = A·u0.
	e.SpMV(r, x)
	sp := e.BeginPhase(obs.PhaseRecurrenceLC)
	vec.Sub(r, b, r)
	chargeAxpys(e, n, 1)
	e.EndPhase(sp)
	e.ApplyPC(u, r)
	e.SpMV(w, u)

	res := &Result{Method: "cg-cg", X: x}
	var alpha, gamma, gammaPrev float64
	buf := make([]float64, 3)
	for i := 0; i < opt.MaxIter; i++ {
		// One fused reduction: γ = (r,u), δ = (w,u), norm term.
		sp = e.BeginPhase(obs.PhaseLocalDots)
		buf[0] = vec.Dot(r, u)
		buf[1] = vec.Dot(w, u)
		buf[2] = normTermPCG(opt.Norm, u, r, buf[0])
		chargeDots(e, n, 3)
		e.EndPhase(sp)
		e.AllreduceSum(buf)
		gamma = buf[0]
		delta := buf[1]
		if stop, conv := mon.check(math.Sqrt(math.Abs(buf[2])), i); stop {
			res.Converged = conv
			res.Diverged = mon.diverged
			break
		}

		var beta float64
		if i > 0 {
			beta = gamma / gammaPrev
			alpha = gamma / (delta - beta*gamma/alpha)
		} else {
			beta = 0
			alpha = gamma / delta
		}

		// p = u + β·p; s = w + β·s; x += α·p; r -= α·s.
		sp = e.BeginPhase(obs.PhaseRecurrenceLC)
		vec.Axpby(p, 1, u, beta)
		vec.Axpby(s, 1, w, beta)
		vec.Axpy(x, alpha, p)
		vec.Axpy(r, -alpha, s)
		chargeAxpys(e, n, 4)
		e.EndPhase(sp)

		// u = M⁻¹·r; w = A·u — the PC and SPMV are on the critical path
		// (no overlap; that is PIPECG's contribution).
		e.ApplyPC(u, r)
		e.SpMV(w, u)

		gammaPrev = gamma
		res.Iterations++
	}
	res.Outer = res.Iterations
	res.History = mon.hist
	res.RelRes = mon.relres()
	e.Counters().Iterations = res.Iterations
	return res, nil
}
