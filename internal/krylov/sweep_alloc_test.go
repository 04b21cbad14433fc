package krylov

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/trace"
	"repro/internal/vec"
)

// quietEngine is a one-rank engine whose kernels allocate nothing (a
// tridiagonal product and the diagonal preconditioner M = 2·I as plain
// loops), so AllocsPerRun sees only what the solver itself allocates. The
// preconditioner reports its diagonal only when diag is set, so the
// preconditioned variants run in one space with it and twin space without.
type quietEngine struct {
	n    int
	c    trace.Counters
	diag []float64
}

func (e *quietEngine) NLocal() int  { return e.n }
func (e *quietEngine) NGlobal() int { return e.n }

func (e *quietEngine) SpMV(dst, src []float64) {
	for i := range dst {
		v := 2 * src[i]
		if i > 0 {
			v -= src[i-1]
		}
		if i+1 < len(src) {
			v -= src[i+1]
		}
		dst[i] = v
	}
}

func (e *quietEngine) SpMVFusedDots(dst, src []float64, scale float64, pc bool, ws [][]float64, dots []float64) {
	e.SpMV(dst, src)
	for k, w := range ws {
		if w == nil {
			w = dst
		}
		dots[k] = vec.DotRange(w, dst, 0, len(dst))
	}
	if pc {
		e.ApplyPC(dst, dst)
	}
}

func (e *quietEngine) SpMVPowers(dstR, dstU [][]float64, src []float64, scale float64) bool {
	return false
}

func (e *quietEngine) ApplyPC(dst, src []float64) {
	for i := range dst {
		dst[i] = 0.5 * src[i]
	}
}

func (e *quietEngine) PCDiagonal() ([]float64, bool) { return e.diag, e.diag != nil }

func (e *quietEngine) AllreduceSum([]float64)                 {}
func (e *quietEngine) IallreduceSum([]float64) engine.Request { return nil }
func (e *quietEngine) Charge(flops, bytes float64)            { e.c.Flops += flops }
func (e *quietEngine) Counters() *trace.Counters              { return &e.c }
func (e *quietEngine) BeginPhase(obs.Phase) obs.Span          { return obs.Span{} }
func (e *quietEngine) EndPhase(obs.Span)                      {}

// TestSStepOuterIterationAllocFree pins the steady state: once the scalar
// work has produced the coefficients, the solver-side vector work of an
// outer iteration — queueing and running the sweep, consuming the fused
// moments, driving the reduction and the powers — allocates nothing, for
// the fused (pipelined) and the split (Alg. 4) sweep schedules alike, and
// for the one-space (weighted dots) and twin-space preconditioned forms.
func TestSStepOuterIterationAllocFree(t *testing.T) {
	defer par.SetWorkers(0)
	n := 3*par.Grain() + 7
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	twos := make([]float64, n)
	for i := range twos {
		twos[i] = 2
	}
	for _, w := range []int{1, 2} {
		par.SetWorkers(w)
		for _, c := range []struct {
			cfg  sstepConfig
			diag []float64
		}{
			{sstepConfig{name: "pipe-pscg", pipelined: true, precond: true}, twos},
			{sstepConfig{name: "pipe-pscg", pipelined: true, precond: true}, nil},
			{sstepConfig{name: "pipe-scg", pipelined: true}, nil},
			{sstepConfig{name: "scg-s"}, nil},
		} {
			cfg := c.cfg
			st := newSStepState(&quietEngine{n: n, diag: c.diag}, Defaults(), cfg)
			st.bootstrap(b)
			co, err := st.sw.Step(st.pay, st.buf)
			if err != nil {
				t.Fatal(err)
			}
			run := func() { st.advance(b, co, false) }
			run()
			if a := testing.AllocsPerRun(3, run); a != 0 {
				t.Errorf("%s one-space=%v workers=%d: %v allocations per outer iteration, want 0",
					cfg.name, st.aqR == nil, w, a)
			}
		}
	}
}
