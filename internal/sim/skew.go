package sim

import (
	"math"

	"repro/internal/obs"
	"repro/internal/partition"
)

// PredictSkew models which rank the serve plane's skew detector would flag
// for a run of the recorded event stream on machine m with p ranks, before
// any distributed execution. The BSP cost model says the most loaded rank
// sets the pace of every synchronized step: its nonzero share converts the
// replayed compute time into per-rank compute, and every lighter rank idles
// the difference at the next reduction. Those modeled timelines feed the
// same obs.AnalyzeSkew the live detector runs on real solves, so forecast
// and detection speak one score. The partition is the balanced-nnz row
// block Evaluate uses; a well-balanced system therefore predicts near-zero
// scores everywhere, and load the partitioner cannot split — a dense row,
// a pathological structure — surfaces as compute excess plus wait deficit
// on the rank that owns it.
func (e *Engine) PredictSkew(m Machine, p int) obs.SkewReport {
	if p < 1 {
		panic("sim: p must be positive")
	}
	b := e.Evaluate(m, p)
	pt := partition.RowBlockByNNZ(e.A, p)

	nnz := make([]float64, p)
	var maxNNZ float64
	for r := 0; r < p; r++ {
		nnz[r] = float64(e.A.RowPtr[pt.Hi(r)] - e.A.RowPtr[pt.Lo(r)])
		maxNNZ = math.Max(maxNNZ, nnz[r])
	}

	ns := func(t float64) int64 { return int64(math.Round(t * 1e9)) }
	sums := make([]obs.Summary, p)
	for r := 0; r < p; r++ {
		tr := obs.New(r)
		compute := 0.0
		if maxNNZ > 0 {
			compute = b.Compute * nnz[r] / maxNNZ
		}
		// The heaviest rank finishes each synchronized step last; every
		// lighter rank stalls the difference, on top of the exposed
		// reduction and halo time all ranks share.
		tr.AddSpanAt(obs.PhaseSpMV, 0, ns(compute))
		wait := (b.Compute - compute) + b.ReduceExposed
		tr.AddSpanAt(obs.PhaseAllreduceWait, ns(compute), ns(compute+wait))
		if b.Halo > 0 {
			tr.AddSpanAt(obs.PhaseHaloWait, ns(compute+wait), ns(compute+wait+b.Halo))
		}
		sums[r] = tr.Summary()
	}
	return obs.AnalyzeSkew(sums)
}
