package main

import (
	"runtime"
	"sync"
	"time"
)

// timeCalls runs f once to warm up, then calls times, and returns the median
// seconds per call.
func timeCalls(calls int, f func()) float64 {
	f()
	s := make(sample, calls)
	for i := range s {
		t0 := time.Now()
		f()
		s[i] = time.Since(t0).Seconds()
	}
	return s.median()
}

// filled returns a length-n vector of seeded values in [-1, 1).
func filled(n int, rng *splitmix64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.unit()
	}
	return v
}

func filledMulti(n, s int, rng *splitmix64) multiVec {
	m := newMulti(n, s)
	for j := range m {
		copy(m[j], filled(n, rng))
	}
	return m
}

// sStep is the block size every s-step kernel shape below uses: the paper's
// default and the one solve_s runs with.
const sStep = 3

// kernelLedger adds the kernel microtimings of the layers this workload
// exercises: direct calls of public functions on the workload's own operator
// and on seeded vectors of its size, a fixed number of calls each. Layers the
// workload bypasses are left at 0 (see README.md).
func kernelLedger(out metrics, cfg runConfig, w solveWorkload, p *solveProblem) {
	machineLedger(out, cfg)
	rng := splitmix64(cfg.seed ^ 0x6b65726e656c) // "kernel"
	rows, nnz := float64(p.a.Rows), float64(p.a.NNZ())
	n := p.a.Rows
	x, y := filled(n, &rng), make([]float64, n)

	switch {
	case w.ranks > 1:
		commLedger(out, cfg, w, p)
	case w.matrixFree:
		gridVecParLedger(out, cfg, p, &rng)
	default:
		sec := timeCalls(cfg.calls(60), func() { p.a.MulVec(y, x) })
		out["sparse.csr_mulvec_ns_per_nnz"] = sec * 1e9 / nnz
		// Computed traffic: 12 bytes per stored nonzero (value + column
		// index) plus streaming source and destination once; cache misses
		// on x are not in it.
		out["sparse.csr_mulvec_gbps_computed"] = (12*nnz + 16*rows) / sec / 1e9
		const k = 8
		xs, ys := filledMulti(n, k, &rng), newMulti(n, k)
		sec = timeCalls(cfg.calls(12), func() { p.a.MulMat(ys, xs) })
		out["sparse.csr_mulmat_k8_ns_per_nnz_rhs"] = sec * 1e9 / (nnz * k)
	}

	if p.pc != nil {
		sec := timeCalls(cfg.calls(200), func() { p.pc.Apply(y, x) })
		out["precond.jacobi_apply_ns_per_row"] = sec * 1e9 / rows
	}
}

// machineLedger is the context every traced run carries: the bandwidth probe
// taken in the same run, the core counts, and the cost of one tracer span.
func machineLedger(out metrics, cfg runConfig) {
	m := readMachine()
	out["machine.nproc"] = float64(m.NProc)
	out["machine.gomaxprocs"] = float64(m.GoMaxProcs)
	out["machine.triad_gbps"] = triadGBps(cfg.calls(5))
	out["obs.span_pair_ns"] = spanPairNS(cfg.calls(200000))
}

// gridVecParLedger times the matrix-free stencil, the s-step multivector
// kernels and the worker pool on solve_vector's operator.
func gridVecParLedger(out metrics, cfg runConfig, p *solveProblem, rng *splitmix64) {
	n := p.a.Rows
	rows := float64(n)
	x, y, z := filled(n, rng), make([]float64, n), filled(n, rng)
	perRow := func(calls int, f func()) float64 { return timeCalls(cfg.calls(calls), f) * 1e9 / rows }

	out["grid.stencil_mulvec_ns_per_row"] = perRow(100, func() { p.op.MulVec(y, x) })
	dots := make([]float64, 1)
	out["grid.stencil_fused_ns_per_row"] = perRow(100, func() { stencilFused(p.op, y, x, z, dots) })

	P, Q := filledMulti(n, sStep, rng), filledMulti(n, sStep, rng)
	gram := make([]float64, sStep*sStep)
	out["vec.gram_ns_per_row"] = perRow(100, func() { gramLocal(gram, P, Q) })
	da := make([]float64, sStep)
	out["vec.dots_against_ns_per_row"] = perRow(100, func() { dotsAgainst(da, x, Q) })
	ms := make([]multiVec, sStep)
	for j := range ms {
		ms[j] = filledMulti(n, sStep, rng)
	}
	alpha := filled(sStep, rng)
	dst := newMulti(n, sStep)
	out["vec.pipelined_update_ns_per_row"] = perRow(60, func() { pipelinedUpdate(dst, P, ms, alpha) })
	sink := 0.0
	out["vec.dot_ns_per_row"] = perRow(200, func() { sink += vecDot(x, z) })
	sec := timeCalls(cfg.calls(200), func() { vecAxpy(y, 0.5, x) })
	out["vec.axpy_gbps_computed"] = 24 * rows / sec / 1e9 // read x, read and write y
	_ = sink

	// Pool: cost of an empty parallel region, SpMV scaling from one worker
	// to nproc, and what nproc solver goroutines pay for sharing the pool.
	workers := poolWorkers()
	out["par.region_overhead_ns"] = timeCalls(cfg.calls(20000), func() { poolRegion(workers) }) * 1e9
	solo := timeCalls(cfg.calls(100), func() { p.op.MulVec(y, x) })
	setWorkers(1)
	one := timeCalls(cfg.calls(100), func() { p.op.MulVec(y, x) })
	setWorkers(workers)
	out["par.spmv_speedup_w"] = one / solo

	tenants := runtime.GOMAXPROCS(0)
	calls := cfg.calls(100)
	per := make(sample, tenants)
	var wg sync.WaitGroup
	for t := 0; t < tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			yy := make([]float64, n)
			per[t] = timeCalls(calls, func() { p.op.MulVec(yy, x) })
		}(t)
	}
	wg.Wait()
	out["par.contended_slowdown"] = per.median() / solo
}

// commLedger times the comm primitives directly and reads the partition.
func commLedger(out metrics, cfg runConfig, w solveWorkload, p *solveProblem) {
	halo, imbalance := haloStats(p.a, p.pt)
	out["partition.halo_cols"] = float64(halo)
	out["partition.nnz_imbalance"] = imbalance

	med := func(ds []time.Duration) float64 {
		s := make(sample, len(ds))
		for i, d := range ds {
			s[i] = d.Seconds()
		}
		return s.median()
	}
	hopped := commProbe(p.a, p.op, p.pt, w.hop, cfg.calls(100))
	out["comm.allreduce_s"] = med(hopped.allreduce)
	out["comm.iallreduce_post_ns"] = med(hopped.iallreducePost) * 1e9
	out["comm.iallreduce_complete_s"] = med(hopped.iallreduceComplete)
	out["comm.halo_spmv_s"] = med(hopped.haloSpMV)
	// The tree allreduce is ceil(log2 P) hops up and as many down.
	hops := 0
	for m := 1; m < p.pt.P; m <<= 1 {
		hops += 2
	}
	out["comm.hop_overshoot"] = med(hopped.allreduce) / float64(hops) / w.hop.Seconds()
	zero := commProbe(p.a, p.op, p.pt, 0, cfg.calls(2000))
	out["comm.allreduce_zero_hop_s"] = med(zero.allreduce)

	// The model runs on the assembled matrix with the paper's b = A·1.
	if sp, err := simSpeedup(p.a, onesRHS(p.a), 120); err == nil {
		out["sim.speedup_vs_pcg_120n"] = sp
	}
}
