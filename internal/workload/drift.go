package workload

import (
	"math"

	"repro/internal/krylov"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// DriftLimit bounds the drift ratio, true over recurrence residual at one
// check: past it the service's tuner moves the operator onto residual
// replacement and the audit flags the run (its default DriftFactor).
const DriftLimit = 25.0

// DriftProbe samples a solve's true residual ‖b−A·x‖/‖b‖ out of band and
// tracks how far it sits above the recurrence residual the monitor reported
// at the same check — the stability signal the service's tuner records and
// the sampler underneath audit.DriftAuditor. It attaches through
// krylov.Options.Observe and uses the raw CSR kernel, never the engine, so a
// probed solve's counter ledger and iterate equal an unprobed one's.
type DriftProbe struct {
	// Every subsamples the monitor checks: the true residual is recomputed
	// on every Every-th check (below 1 means every check).
	Every int
	// OnSample, when non-nil, sees each sample: the monitor's history point,
	// the true relative residual, and the residual vector b−A·x itself
	// (scratch, valid during the call).
	OnSample func(hp krylov.HistPoint, trueRel float64, r []float64)
	// MaxRatio is the largest trueRel/RelRes over the finite samples so far.
	MaxRatio float64

	a      *sparse.CSR
	b      []float64
	bnorm  float64
	r      []float64
	checks int
}

// NewDriftProbe builds the probe for one solve of A·x = b.
func NewDriftProbe(a *sparse.CSR, b []float64, every int) *DriftProbe {
	return &DriftProbe{Every: every, a: a, b: b,
		bnorm: math.Sqrt(vec.Dot(b, b)), r: make([]float64, a.Rows)}
}

// Observe is the krylov.Options.Observe hook.
func (d *DriftProbe) Observe(hp krylov.HistPoint, x []float64) {
	d.checks++
	if d.Every > 1 && (d.checks-1)%d.Every != 0 {
		return
	}
	d.a.MulVec(d.r, x)
	vec.Sub(d.r, d.b, d.r)
	trueRel := math.Sqrt(vec.Dot(d.r, d.r))
	if d.bnorm > 0 {
		trueRel /= d.bnorm
	}
	// Drift is only meaningful between finite quantities; a non-finite
	// recurrence residual is the divergence guard's business.
	if finite(hp.RelRes) && finite(trueRel) && hp.RelRes > 0 {
		d.MaxRatio = math.Max(d.MaxRatio, trueRel/hp.RelRes)
	}
	if d.OnSample != nil {
		d.OnSample(hp, trueRel, d.r)
	}
}

// TrueResidual recomputes ‖b−A·x‖/‖b‖ from scratch through the raw CSR
// kernel — the ground truth no recurrence drift or injected corruption can
// fake (the absolute norm when b = 0).
func TrueResidual(a *sparse.CSR, b, x []float64) float64 {
	r := make([]float64, a.Rows)
	a.MulVec(r, x)
	vec.Sub(r, b, r)
	num, den := math.Sqrt(vec.Dot(r, r)), math.Sqrt(vec.Dot(b, b))
	if den > 0 {
		return num / den
	}
	return num
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
