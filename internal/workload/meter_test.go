package workload_test

import (
	"testing"

	"repro/internal/blockcg"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// meterStep is one call of the metering script: what every engine's
// counters must gain from it, and the spans sim's replay of the events it
// recorded emits (evSpMV: halo_wait + spmv, evPC: pc_apply, evAllreduce:
// allreduce_wait, evIPost/evIWait: iallreduce_post/allreduce_wait, evLocal:
// recurrence_lc when untagged).
type meterStep struct {
	name  string
	block bool // SpMVBlock: only engines that have it run the step
	call  func(e engine.Engine, x []float64)
	want  trace.Counters
	spans map[obs.Phase]int64
}

func meterScript(a *sparse.CSR) []meterStep {
	nnz, n := 2*float64(a.NNZ()), float64(a.Rows) // one product's flops; Jacobi's flops
	product := func(e engine.Engine, x []float64) { e.SpMV(make([]float64, len(x)), x) }
	fused := func(pc bool) func(e engine.Engine, x []float64) {
		return func(e engine.Engine, x []float64) {
			dots := make([]float64, 1)
			e.SpMVFusedDots(make([]float64, len(x)), x, 0.5, pc, [][]float64{nil}, dots)
		}
	}
	productSpans := map[obs.Phase]int64{obs.PhaseHaloWait: 1, obs.PhaseSpMV: 1}
	return []meterStep{
		{name: "SpMV", call: product,
			want:  trace.Counters{SpMV: 1, HaloExchanges: 1, SpMVFlops: nnz},
			spans: productSpans},
		{name: "SpMVFusedDots", call: fused(false),
			want:  trace.Counters{SpMV: 1, HaloExchanges: 1, SpMVFlops: nnz},
			spans: productSpans},
		{name: "SpMVFusedDots+pc", call: fused(true),
			want:  trace.Counters{SpMV: 1, HaloExchanges: 1, SpMVFlops: nnz, PCApply: 1, PCFlops: n},
			spans: map[obs.Phase]int64{obs.PhaseHaloWait: 1, obs.PhaseSpMV: 1, obs.PhasePCApply: 1}},
		{name: "ApplyPC", call: func(e engine.Engine, x []float64) { e.ApplyPC(make([]float64, len(x)), x) },
			want:  trace.Counters{PCApply: 1, PCFlops: n},
			spans: map[obs.Phase]int64{obs.PhasePCApply: 1}},
		{name: "AllreduceSum", call: func(e engine.Engine, x []float64) { e.AllreduceSum(make([]float64, 3)) },
			want:  trace.Counters{Allreduce: 1, ReduceWords: 3},
			spans: map[obs.Phase]int64{obs.PhaseAllreduceWait: 1}},
		{name: "IallreduceSum+Wait", call: func(e engine.Engine, x []float64) { e.IallreduceSum(make([]float64, 2)).Wait() },
			want:  trace.Counters{Iallreduce: 1, ReduceWords: 2},
			spans: map[obs.Phase]int64{obs.PhaseIallreducePost: 1, obs.PhaseAllreduceWait: 1}},
		{name: "Charge", call: func(e engine.Engine, x []float64) { e.Charge(10, 80) },
			want:  trace.Counters{Flops: 10},
			spans: map[obs.Phase]int64{obs.PhaseRecurrenceLC: 1}},
		{name: "SpMVBlock", block: true,
			call: func(e engine.Engine, x []float64) {
				e.(engine.BlockSpMV).SpMVBlock([][]float64{make([]float64, len(x)), make([]float64, len(x))}, [][]float64{x, x})
			},
			want:  trace.Counters{SpMV: 2, HaloExchanges: 1, SpMVFlops: 2 * nnz},
			spans: map[obs.Phase]int64{obs.PhaseHaloWait: 2, obs.PhaseSpMV: 2}},
	}
}

// runMeterScript runs the script on e, checking each step's counter delta
// and, after it, calling after(step).
func runMeterScript(t *testing.T, engName string, e engine.Engine, script []meterStep, after func(meterStep)) {
	t.Helper()
	x := make([]float64, e.NLocal())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	_, hasBlock := e.(engine.BlockSpMV)
	for _, st := range script {
		if st.block && !hasBlock {
			continue
		}
		before := *e.Counters()
		st.call(e, x)
		got := *e.Counters()
		delta := trace.Counters{
			SpMV: got.SpMV - before.SpMV, PCApply: got.PCApply - before.PCApply,
			Allreduce: got.Allreduce - before.Allreduce, Iallreduce: got.Iallreduce - before.Iallreduce,
			ReduceWords: got.ReduceWords - before.ReduceWords, HaloExchanges: got.HaloExchanges - before.HaloExchanges,
			Flops: got.Flops - before.Flops, SpMVFlops: got.SpMVFlops - before.SpMVFlops, PCFlops: got.PCFlops - before.PCFlops,
		}
		if delta != st.want {
			t.Errorf("%s %s: booked %+v, want %+v", engName, st.name, delta, st.want)
		}
		if after != nil {
			after(st)
		}
	}
}

// TestMeterBooksEveryEngineAlike runs one call script on the four engines —
// engine.Seq, sim's recorder, a P=1 comm rank and a gang column over a Seq
// — and holds each call's counter delta to one table; sim's recording must
// hold exactly the script's events, in order, which its replay shows.
func TestMeterBooksEveryEngineAlike(t *testing.T) {
	a := grid.NewCube(5, grid.Star7).Laplacian()
	script := meterScript(a)
	jacobi := precond.NewJacobi(a, 0, a.Rows)

	runMeterScript(t, "seq", engine.NewSeq(a, jacobi), script, nil)

	se := sim.NewEngine(a, jacobi)
	var seen [obs.NumPhases]int64
	runMeterScript(t, "sim", se, script, func(st meterStep) {
		tr := obs.New(0)
		se.Trace(sim.CrayXC40(), 1, tr)
		s := tr.Summary()
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			if got := s.Phases[p].Count - seen[p]; got != st.spans[p] {
				t.Errorf("sim %s: replay emits %d %s spans, want %d", st.name, got, p, st.spans[p])
			}
			seen[p] = s.Phases[p].Count
		}
	})

	f := comm.NewFabric(1, 0)
	ranks := comm.NewEngines(f, a, partition.RowBlock(a.Rows, 1), func(a *sparse.CSR, lo, hi int) engine.Preconditioner {
		return precond.NewJacobi(a, lo, hi)
	})
	comm.Run(ranks, func(_ int, e *comm.Engine) { runMeterScript(t, "comm", e, script, nil) })
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	out := blockcg.Solve(engine.NewSeq(a, jacobi), func(e engine.Engine, b []float64, _ krylov.Options) (*krylov.Result, error) {
		runMeterScript(t, "gang column", e, script, nil)
		return &krylov.Result{}, nil
	}, []blockcg.Column{{B: make([]float64, a.Rows)}})
	if out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
}
