// Package audit is the differential correctness harness: it runs the same
// seeded solver configurations through every runtime the repo has — the
// sequential reference, the cost-model simulator, and the goroutine-rank
// comm fabric at several rank counts and worker-pool sizes — and judges the
// outcomes against each other and against out-of-band ground truth.
//
// The harness enforces three layers of correctness:
//
//  1. Equivalence. Runtimes that execute the same floating-point operation
//     sequence (seq, sim, comm with one rank — at any pool size) must agree
//     to the bit: iterates, convergence histories, and counter ledgers.
//     Multi-rank comm runs re-associate reductions and are held to an
//     outcome policy instead (agreeing convergence, bounded iteration
//     ratio, true residual within a factor of the tolerance). See
//     CompareRuns.
//
//  2. Recurrence drift. Pipelined and s-step recurrences can drift from the
//     true residual (Cools–Vanroose; Moufawad); the DriftAuditor recomputes
//     ‖b−A·x‖/‖b‖ out-of-band every few monitor checks — through the raw
//     CSR kernel, never the engine, so ledgers stay comparable — and flags
//     departures beyond a configured factor.
//
//  3. Structural invariants. Histories must be well-formed, residual norms
//     finite except at a divergence guard's terminal sample, reduction
//     indices monotone, convergence claims backed by the tolerance, and the
//     Krylov-basis Gram matrix symmetric and PSD within tolerance
//     (CheckInvariants, DriftAuditor.gramProbe).
//
// On failure the harness shrinks the config to a locally minimal failing
// one (Shrink) and prints a one-line repro: go run ./cmd/audit -one "...".
// Everything is derived from a single uint64 seed, so every reported
// failure is exactly reproducible.
package audit

import "repro/internal/workload"

// SweepOptions configures a sweep.
type SweepOptions struct {
	Seed   uint64
	Count  int
	Params AuditParams
	Specs  []EngineSpec // nil means DefaultSpecs()
	// Shrink enables minimization of failing configs (each shrink step
	// re-runs the full spec matrix, so it multiplies failure cost only).
	Shrink bool
	// Log, when non-nil, receives one progress line per config.
	Log func(format string, args ...any)
}

// Report is the outcome of a sweep.
type Report struct {
	Configs       int
	Runs          int
	Violations    []Violation
	MaxDriftRatio float64 // worst true/recurrence residual ratio seen anywhere
}

// Sweep generates Count configs from Seed and audits each one across the
// engine matrix. It returns every violation found; an empty Violations
// slice is the pass condition.
func Sweep(o SweepOptions) *Report {
	if o.Specs == nil {
		o.Specs = DefaultSpecs()
	}
	rep := &Report{}
	for _, cfg := range Generate(o.Seed, o.Count) {
		vs, runs, ratio := AuditConfig(cfg, o.Specs, o.Params)
		rep.Configs++
		rep.Runs += runs
		if ratio > rep.MaxDriftRatio {
			rep.MaxDriftRatio = ratio
		}
		if len(vs) > 0 && o.Shrink {
			vs = withRepro(vs, cfg, o.Specs, o.Params)
		}
		rep.Violations = append(rep.Violations, vs...)
		if o.Log != nil {
			status := "ok"
			if len(vs) > 0 {
				status = "FAIL"
			}
			o.Log("%-4s %s (%d runs, drift ratio %.2f)", status, cfg, runs, ratio)
		}
	}
	return rep
}

// AuditConfig runs one config through every spec and returns the violations,
// the number of runs executed, and the worst drift ratio observed.
func AuditConfig(cfg Config, specs []EngineSpec, p AuditParams) ([]Violation, int, float64) {
	if specs == nil {
		specs = DefaultSpecs()
	}
	var vs []Violation
	runs := make([]*Run, 0, len(specs))
	nRuns := 0
	maxRatio := 0.0
	for _, spec := range specs {
		r, err := Execute(cfg, spec, p)
		nRuns++
		if err != nil {
			vs = append(vs, Violation{Config: cfg, Spec: spec.String(),
				Kind: "error", Detail: err.Error()})
			continue
		}
		runs = append(runs, r)
		vs = append(vs, CheckInvariants(cfg, r)...)
		if r.Drift != nil {
			for _, d := range r.Drift.Violations {
				vs = append(vs, Violation{Config: cfg, Spec: spec.String(),
					Kind: "drift", Detail: d})
			}
			if r.Drift.MaxRatio > maxRatio {
				maxRatio = r.Drift.MaxRatio
			}
		}
	}
	vs = append(vs, CompareRuns(cfg, runs, p)...)

	// Block axis: configs with K > 1 additionally audit the multi-RHS gang
	// (every column bit-compared to its own solo solve on the sequential
	// reference).
	if cfg.K > 1 {
		bvs, bruns := AuditBlock(cfg, p)
		vs = append(vs, bvs...)
		nRuns += bruns
	}

	// Cross-P closure: the gathered iterate of every multi-rank run must
	// satisfy the solved system — the same operator-axis transform Execute
	// applied (an rcm config's iterate solves the reordered system, so the
	// ground truth must be reordered too) — measured out-of-band.
	if pr, err := buildProblem(cfg); err == nil {
		for _, r := range runs {
			if r.Spec.BitGroup() {
				continue
			}
			vs = append(vs, CheckTrueResidual(cfg, r, workload.TrueResidual(pr.A, pr.B, r.X), p)...)
		}
	}
	return vs, nRuns, maxRatio
}

// withRepro shrinks the failing config and stamps every violation with the
// minimized one-line repro command.
func withRepro(vs []Violation, cfg Config, specs []EngineSpec, p AuditParams) []Violation {
	min := Shrink(cfg, func(c Config) bool {
		got, _, _ := AuditConfig(c, specs, p)
		return len(got) > 0
	})
	line := ReproLine(min)
	for i := range vs {
		vs[i].Repro = line
	}
	return vs
}
