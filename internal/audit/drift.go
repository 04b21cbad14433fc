package audit

import (
	"fmt"
	"math"

	"repro/internal/krylov"
	"repro/internal/sparse"
	"repro/internal/vec"
	"repro/internal/workload"
)

// AuditParams bounds every judgement the harness makes. Defaults() is the
// tuning the acceptance sweep runs with; cmd/audit exposes the knobs.
type AuditParams struct {
	MaxIter int // solver iteration budget per run

	// DriftEvery subsamples the monitor checks: the true residual is
	// recomputed every DriftEvery-th check (1 = every check).
	DriftEvery int
	// DriftFactor bounds how far the true residual ‖b−A·x‖/‖b‖ may sit above
	// the recurrence residual the monitor reported at the same check. The
	// audit solves use the unpreconditioned norm, so the two quantities
	// estimate the same number and the ratio is a direct measure of
	// recurrence rounding drift (Cools–Vanroose).
	DriftFactor float64
	// DriftFloor is the absolute level below which drift is never flagged:
	// near the attainable-accuracy floor the recurrence residual keeps
	// shrinking while the true residual plateaus (paper §V) — that gap is
	// the phenomenon, not a bug.
	DriftFloor float64

	// GramTol is the relative tolerance of the basis Gram probe: symmetry
	// skew and Cholesky diagonal shift are both measured against the Gram's
	// largest entry.
	GramTol float64

	// CrossIterRatio and CrossResidFactor define the cross-P policy (see
	// ComparePolicy in compare.go).
	CrossIterRatio   float64
	CrossResidFactor float64

	// Trace attaches a per-rank obs.Tracer to every engine the run builds.
	// Tracing is strictly observational: a sweep must produce bit-identical
	// iterates and ledgers with it on or off (TestAuditTraceInvariance).
	Trace bool

	// Flight additionally runs the full post-solve observability sink after
	// a traced run — per-rank skew analysis over the summaries plus fabric
	// transit attribution, folded into a throwaway flight recorder — so the
	// sweep pins that the WHOLE pipeline (tracers, transit accounting, skew,
	// flight) is bit-neutral (TestAuditFlightInvariance). Requires Trace.
	Flight bool
}

// DefaultParams returns the acceptance-sweep tuning.
func DefaultParams() AuditParams {
	return AuditParams{
		MaxIter:          800,
		DriftEvery:       4,
		DriftFactor:      workload.DriftLimit,
		DriftFloor:       1e-10,
		GramTol:          1e-10,
		CrossIterRatio:   2.0,
		CrossResidFactor: 50,
	}
}

// DriftSample is one out-of-band measurement: the monitor's recurrence
// residual versus the recomputed true residual at the same check.
type DriftSample struct {
	Iteration int
	RelRes    float64 // recurrence residual the monitor recorded
	TrueRel   float64 // ‖b−A·x‖/‖b‖ recomputed from the iterate
}

// DriftReport is what one audited run observed.
type DriftReport struct {
	Samples    []DriftSample
	MaxRatio   float64 // max TrueRel/RelRes over all finite samples
	Violations []string
}

// DriftAuditor keeps an audited run's drift samples, its drift violations
// and the Krylov-basis Gram probe on top of workload.DriftProbe, the
// out-of-band true-residual sampler (raw CSR kernels, never the engine, so
// the audited run's counter ledger is identical to an unaudited one — ledger
// bit-identity across engines is itself under test).
type DriftAuditor struct {
	*workload.DriftProbe
	a   *sparse.CSR
	s   int
	p   AuditParams
	t   []float64 // scratch: A·basis column
	rep DriftReport
}

// NewDriftAuditor builds the auditor for one solve of A·x = b with block
// size s (the Gram probe builds an s-column monomial basis). Its Observe
// method is the krylov.Options.Observe hook: every DriftEvery-th monitor
// check it recomputes the true residual and probes the Krylov-basis Gram
// matrix the next s-step block would be built from.
func NewDriftAuditor(a *sparse.CSR, b []float64, s int, p AuditParams) *DriftAuditor {
	if s < 1 {
		s = 1
	}
	d := &DriftAuditor{DriftProbe: workload.NewDriftProbe(a, b, p.DriftEvery),
		a: a, s: s, p: p, t: make([]float64, a.Rows)}
	d.OnSample = d.sample
	return d
}

// sample judges one measurement; r is the true residual b − A·x.
func (d *DriftAuditor) sample(hp krylov.HistPoint, trueRel float64, r []float64) {
	d.rep.Samples = append(d.rep.Samples, DriftSample{
		Iteration: hp.Iteration, RelRes: hp.RelRes, TrueRel: trueRel,
	})
	d.rep.MaxRatio = d.MaxRatio
	// A non-finite recurrence residual is the divergence guard's business
	// (an invariant check ensures it is terminal); drift is only meaningful
	// between finite quantities.
	if !finite(hp.RelRes) || !finite(trueRel) {
		return
	}
	if trueRel > d.p.DriftFloor && trueRel > d.p.DriftFactor*hp.RelRes {
		d.rep.Violations = append(d.rep.Violations, fmt.Sprintf(
			"iter %d: true residual %.3e exceeds %g× recurrence residual %.3e",
			hp.Iteration, trueRel, d.p.DriftFactor, hp.RelRes))
	}
	if v := d.gramProbe(r); v != "" {
		d.rep.Violations = append(d.rep.Violations,
			fmt.Sprintf("iter %d: %s", hp.Iteration, v))
	}
}

// gramProbe builds the s-column monomial Krylov basis K = [r, Ar, …,
// A^{s-1}r] from the current TRUE residual r and checks the
// A-Gram G = KᵀAK for symmetry and positive semi-definiteness within
// tolerance — the structural precondition the s-step scalar work (W·α = g
// via Cholesky) rests on. Columns are normalized so the probe measures the
// operator, not the residual's magnitude. Returns "" when the probe passes.
func (d *DriftAuditor) gramProbe(r []float64) string {
	s, n := d.s, d.a.Rows
	basis := make([][]float64, s)
	cur := r
	for j := 0; j < s; j++ {
		col := make([]float64, n)
		copy(col, cur)
		nrm := math.Sqrt(vec.Dot(col, col))
		if nrm == 0 || !finite(nrm) {
			return "" // residual vanished or exploded: nothing to probe
		}
		vec.Scale(col, 1/nrm)
		basis[j] = col
		if j+1 < s {
			d.a.MulVec(d.t, col)
			cur = d.t
		}
	}
	g := make([]float64, s*s)
	maxAbs := 0.0
	for i := 0; i < s; i++ {
		d.a.MulVec(d.t, basis[i])
		for j := 0; j < s; j++ {
			v := vec.Dot(d.t, basis[j])
			g[i*s+j] = v
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
	}
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			if !finite(g[i*s+j]) {
				return fmt.Sprintf("gram probe: non-finite entry G[%d,%d]", i, j)
			}
		}
	}
	tol := d.p.GramTol * maxAbs
	for i := 0; i < s; i++ {
		for j := i + 1; j < s; j++ {
			if skew := math.Abs(g[i*s+j] - g[j*s+i]); skew > tol {
				return fmt.Sprintf("gram probe: symmetry skew %.3e at G[%d,%d] (tol %.3e)", skew, i, j, tol)
			}
		}
	}
	if !choleskyPSD(g, s, tol) {
		return fmt.Sprintf("gram probe: %d×%d basis Gram not PSD within shift %.3e", s, s, tol)
	}
	return ""
}

// choleskyPSD attempts an in-place Cholesky factorization of the s×s matrix
// g (row-major) with a diagonal shift of tol — the standard PSD-within-
// tolerance probe.
func choleskyPSD(g []float64, s int, tol float64) bool {
	l := make([]float64, s*s)
	for i := 0; i < s; i++ {
		for j := 0; j <= i; j++ {
			sum := g[i*s+j]
			if i == j {
				sum += tol
			}
			for k := 0; k < j; k++ {
				sum -= l[i*s+k] * l[j*s+k]
			}
			if i == j {
				if sum <= 0 || !finite(sum) {
					return false
				}
				l[i*s+i] = math.Sqrt(sum)
			} else {
				l[i*s+j] = sum / l[j*s+j]
			}
		}
	}
	return true
}

// Report finalizes and returns the collected observations.
func (d *DriftAuditor) Report() *DriftReport { return &d.rep }

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
