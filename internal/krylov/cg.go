package krylov

import (
	"math"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/vec"
)

// PCG is the Hestenes–Stiefel preconditioned conjugate gradient method,
// Algorithm 1 of the paper. Each iteration performs one SPMV, one PC and
// three blocking allreduces — the synchronization bottleneck the pipelined
// variants attack.
func PCG(e engine.Engine, b []float64, opt Options) (*Result, error) {
	n := e.NLocal()
	mon := newMonitor(e, b, opt)

	x := zerosLike(n, opt.X0)
	mon.x = x
	r := make([]float64, n)
	u := make([]float64, n)
	p := make([]float64, n)
	s := make([]float64, n)

	// r0 = b - A·x0; u0 = M⁻¹·r0.
	e.SpMV(r, x)
	sp := e.BeginPhase(obs.PhaseRecurrenceLC)
	vec.Sub(r, b, r)
	chargeAxpys(e, n, 1)
	e.EndPhase(sp)
	e.ApplyPC(u, r)

	sp = e.BeginPhase(obs.PhaseLocalDots)
	gammaBuf := []float64{vec.Dot(u, r)}
	chargeDots(e, n, 1)
	e.EndPhase(sp)
	e.AllreduceSum(gammaBuf)
	gamma := gammaBuf[0]

	res := &Result{Method: "pcg", X: x}
	var alpha, gammaPrev float64
	for i := 0; i < opt.MaxIter; i++ {
		// Norm check (its own allreduce, as in Alg. 1 line 17 / Table I).
		sp = e.BeginPhase(obs.PhaseLocalDots)
		normBuf := []float64{normTermPCG(opt.Norm, u, r, gamma)}
		chargeDots(e, n, 1)
		e.EndPhase(sp)
		e.AllreduceSum(normBuf)
		if stop, _ := mon.check(math.Sqrt(math.Abs(normBuf[0])), i); stop {
			break
		}

		beta := 0.0
		if i > 0 {
			beta = gamma / gammaPrev
		}
		// p = u + β·p.
		sp = e.BeginPhase(obs.PhaseRecurrenceLC)
		vec.Axpby(p, 1, u, beta)
		chargeAxpys(e, n, 1)
		e.EndPhase(sp)

		e.SpMV(s, p)
		sp = e.BeginPhase(obs.PhaseLocalDots)
		deltaBuf := []float64{vec.Dot(s, p)}
		chargeDots(e, n, 1)
		e.EndPhase(sp)
		e.AllreduceSum(deltaBuf)
		alpha = gamma / deltaBuf[0]

		sp = e.BeginPhase(obs.PhaseRecurrenceLC)
		vec.Axpy(x, alpha, p)
		vec.Axpy(r, -alpha, s)
		chargeAxpys(e, n, 2)
		e.EndPhase(sp)
		e.ApplyPC(u, r)

		gammaPrev = gamma
		sp = e.BeginPhase(obs.PhaseLocalDots)
		gammaBuf[0] = vec.Dot(u, r)
		chargeDots(e, n, 1)
		e.EndPhase(sp)
		e.AllreduceSum(gammaBuf)
		gamma = gammaBuf[0]

		res.Iterations++
	}
	res.Outer = res.Iterations
	return mon.finish(res), nil
}

// normTermPCG returns the squared norm term for the selected mode. The
// natural norm reuses γ = (u, r) with no extra dot product.
func normTermPCG(mode NormMode, u, r []float64, gamma float64) float64 {
	switch mode {
	case NormUnpreconditioned:
		return vec.Dot(r, r)
	case NormNatural:
		return gamma
	default:
		return vec.Dot(u, u)
	}
}

// PIPECG is the Ghysels–Vanroose pipelined preconditioned CG. Each iteration
// posts a single non-blocking allreduce carrying (γ, δ, ‖·‖²) and overlaps
// it with one PC and one SPMV, at the cost of extra recurrence VMAs (22·N
// flops per iteration vs PCG's 12·N — Table I).
func PIPECG(e engine.Engine, b []float64, opt Options) (*Result, error) {
	n := e.NLocal()
	mon := newMonitor(e, b, opt)

	x := zerosLike(n, opt.X0)
	mon.x = x
	r := make([]float64, n)
	u := make([]float64, n)
	w := make([]float64, n)
	m := make([]float64, n)
	nn := make([]float64, n)
	z := make([]float64, n)
	q := make([]float64, n)
	s := make([]float64, n)
	p := make([]float64, n)

	// r0 = b - A·x0; u0 = M⁻¹r0; w0 = A·u0.
	e.SpMV(r, x)
	sp := e.BeginPhase(obs.PhaseRecurrenceLC)
	vec.Sub(r, b, r)
	chargeAxpys(e, n, 1)
	e.EndPhase(sp)
	e.ApplyPC(u, r)
	e.SpMV(w, u)

	res := &Result{Method: "pipecg", X: x}
	var alpha, gamma, gammaPrev float64
	buf := make([]float64, 3)
	for i := 0; i < opt.MaxIter; i++ {
		sp = e.BeginPhase(obs.PhaseLocalDots)
		buf[0] = vec.Dot(r, u) // γ
		buf[1] = vec.Dot(w, u) // δ
		buf[2] = normTermPCG(opt.Norm, u, r, buf[0])
		chargeDots(e, n, 3)
		e.EndPhase(sp)
		req := e.IallreduceSum(buf)

		// Overlapped PC + SPMV.
		e.ApplyPC(m, w)
		e.SpMV(nn, m)

		req.Wait()
		gamma = buf[0]
		delta := buf[1]
		if stop, _ := mon.check(math.Sqrt(math.Abs(buf[2])), i); stop {
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

		// Recurrence updates (8 VMAs).
		sp = e.BeginPhase(obs.PhaseRecurrenceLC)
		vec.Axpby(z, 1, nn, beta)
		vec.Axpby(q, 1, m, beta)
		vec.Axpby(s, 1, w, beta)
		vec.Axpby(p, 1, u, beta)
		vec.Axpy(x, alpha, p)
		vec.Axpy(r, -alpha, s)
		vec.Axpy(u, -alpha, q)
		vec.Axpy(w, -alpha, z)
		chargeAxpys(e, n, 8)
		e.EndPhase(sp)

		// Periodic residual replacement: recompute r, u, w from x to
		// arrest recurrence rounding drift.
		if opt.ReplaceEvery > 0 && (i+1)%opt.ReplaceEvery == 0 {
			e.SpMV(r, x)
			sp = e.BeginPhase(obs.PhaseRecurrenceLC)
			vec.Sub(r, b, r)
			chargeAxpys(e, n, 1)
			e.EndPhase(sp)
			e.ApplyPC(u, r)
			e.SpMV(w, u)
		}

		gammaPrev = gamma
		res.Iterations++
	}
	res.Outer = res.Iterations
	return mon.finish(res), nil
}
