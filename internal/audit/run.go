package audit

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/trace"
	"repro/internal/workload"
)

// EngineSpec names one runtime a config is executed on: the engine kind,
// the rank count (comm only) and the shared worker-pool size. The pool size
// is part of the spec because the determinism contract of internal/par —
// chunk geometry is a function of problem size, never worker count — is one
// of the properties the harness exists to enforce.
type EngineSpec struct {
	Kind  string // "seq", "sim" or "comm"
	Ranks int    // comm only; 0/1 otherwise
	Pool  int    // par worker count; 0 means the GOMAXPROCS default
}

// String renders the spec for violation reports ("comm[p=4,pool=8]").
func (s EngineSpec) String() string {
	pool := s.Pool
	if pool == 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	if s.Kind == "comm" {
		return fmt.Sprintf("comm[p=%d,pool=%d]", s.Ranks, pool)
	}
	return fmt.Sprintf("%s[pool=%d]", s.Kind, pool)
}

// BitGroup reports whether runs on this spec must be bit-identical to the
// sequential reference. Seq and sim share the exact kernel sequence on
// global vectors, and a single comm rank owns every row, so all three — at
// ANY pool size — must agree to the last bit. Multi-rank comm re-associates
// the dot-product reduction across rank boundaries, which is a genuinely
// different (and equally valid) floating-point sum; those runs are held to
// the cross-P policy instead (see ComparePolicy).
func (s EngineSpec) BitGroup() bool { return s.Kind != "comm" || s.Ranks <= 1 }

// DefaultSpecs is the engine matrix ISSUE 4 prescribes: the three bit-group
// runtimes with both pool extremes, plus comm at P=4 and P=7.
func DefaultSpecs() []EngineSpec {
	ncpu := runtime.NumCPU()
	all := []EngineSpec{
		{Kind: "seq", Pool: 1},
		{Kind: "seq", Pool: ncpu},
		{Kind: "sim", Pool: 1},
		{Kind: "comm", Ranks: 1, Pool: 1},
		{Kind: "comm", Ranks: 4, Pool: ncpu},
		{Kind: "comm", Ranks: 7, Pool: ncpu},
	}
	// On a single-core machine the two pool extremes coincide; drop the
	// duplicates rather than run identical specs twice.
	out := all[:0]
	for _, s := range all {
		dup := false
		for _, prev := range out {
			if prev == s {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}

// Run is the observable outcome of one (config, spec) execution: the solver
// result with the assembled global iterate, the rank-0 counter ledger, and
// the out-of-band drift/invariant observations collected during the solve.
type Run struct {
	Spec   EngineSpec
	Res    *krylov.Result
	X      []float64 // global iterate (gathered for comm)
	Ledger trace.Counters
	Drift  *DriftReport // nil when the spec cannot observe global iterates (comm P>1)
	RelTol float64

	// Skew is the per-rank straggler analysis, populated only on traced
	// multi-rank runs with AuditParams.Flight set.
	Skew *obs.SkewReport
}

// buildProblem resolves a config's problem including its operator axis, so
// every consumer — Execute, the cross-P residual closure — sees the SAME
// transformed system. "csr" strips the matrix-free backend, "stencil"
// requires it, and "rcm" reorders the whole system (A, b, and ground truth
// move together; the stencil kernel is invalid after reordering).
func buildProblem(cfg Config) (workload.Problem, error) {
	pr, err := workload.ProblemByName(cfg.Problem, cfg.N, cfg.N)
	if err != nil {
		return pr, err
	}
	switch cfg.Op {
	case "":
	case "csr":
		pr.Op = nil
	case "stencil":
		if pr.Op == nil {
			return pr, fmt.Errorf("audit: problem %q has no matrix-free stencil", cfg.Problem)
		}
	case "rcm":
		pr = pr.Reordered(sparse.RCMOrder(pr.A))
	default:
		return pr, fmt.Errorf("audit: unknown op %q", cfg.Op)
	}
	return pr, nil
}

// Execute runs one config on one engine spec, assembled the way every other
// harness assembles a solve: the catalogue, the preconditioner table and —
// for comm specs — the SPMD driver of internal/workload. The solve is
// configured with the unpreconditioned residual norm so the monitor's
// recurrence norm and the drift auditor's true ‖b−A·x‖/‖b‖ measure the same
// quantity.
func Execute(cfg Config, spec EngineSpec, ap AuditParams) (*Run, error) {
	pr, err := buildProblem(cfg)
	if err != nil {
		return nil, err
	}
	opt := workload.DefaultOptions(pr)
	opt.S = cfg.S
	opt.MaxIter = ap.MaxIter
	opt.Norm = krylov.NormUnpreconditioned
	opt.ReplaceEvery = cfg.RR
	meth, err := krylov.MethodByName(cfg.Method)
	if err != nil {
		return nil, err
	}

	// The worker pool is process-global; pin it for the duration of this run
	// and restore afterwards so specs never leak into each other.
	prevPool := par.Workers()
	par.SetWorkers(spec.Pool)
	defer par.SetWorkers(prevPool)

	run := &Run{Spec: spec, RelTol: opt.RelTol}

	// The drift auditor observes the iterate out-of-band wherever one rank
	// holds the whole vector. It uses the raw CSR product — never the engine
	// — so the counter ledgers stay comparable across engines.
	if spec.BitGroup() {
		da := NewDriftAuditor(pr.A, pr.B, cfg.S, ap)
		opt.Observe = da.Observe
		defer func() { run.Drift = da.Report() }()
	}

	switch spec.Kind {
	case "seq", "sim":
		pc, err := workload.PC(workload.EffectivePC(meth, cfg.PC), pr)
		if err != nil {
			return nil, err
		}
		var e engine.Engine
		if spec.Kind == "seq" {
			se := engine.NewSeq(pr.Operator(), pc)
			if ap.Trace {
				se.Tr = obs.New(0)
			}
			e = se
		} else {
			// The sim engine records phase tags at solve time regardless;
			// spans materialize only at replay (sim.Trace), so there is no
			// per-run tracer to attach here.
			e = sim.Record(engine.NewSeq(pr.Operator(), pc), pr.A, pc)
		}
		res, err := meth.Solve(e, pr.B, opt)
		if err != nil {
			return nil, err
		}
		run.Res, run.X, run.Ledger = res, res.X, *e.Counters()
		return run, nil

	case "comm":
		ranks := spec.Ranks
		if ranks < 1 {
			ranks = 1
		}
		// A lost collective fails the run within one receive deadline
		// instead of hanging the sweep.
		f := comm.NewFabric(ranks, 0).WithRecvTimeout(10*time.Second, 0)
		driver := workload.SPMD{Fabric: f, PC: cfg.PC}
		if ap.Trace {
			driver.Tracer = workload.DefaultTracer
		}
		out, err := driver.Run(pr, meth, pr.B, opt)
		if err != nil {
			return nil, err
		}
		if r, err := out.FirstErr(); err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
		if out.Leak != nil {
			return nil, out.Leak
		}
		run.Res, run.X, run.Ledger = out.Res, out.Res.X, out.Counters[0]

		// The full observability sink, mirroring solverd's post-solve path:
		// skew over the rank summaries with fabric transit attribution, the
		// record folded into a (discarded) flight recorder. All of it reads
		// finished state, so the iterates above must be unaffected.
		if sums := out.Summaries; ap.Flight && sums != nil && ranks > 1 {
			skew := obs.AnalyzeSkewTransit(sums, out.TransitNS)
			run.Skew = &skew
			fr := obs.NewFlightRecorder("audit", spec.String(), 4, 4)
			fr.RecordJob(obs.JobRecord{
				Job:     cfg.String(),
				Outcome: "converged",
				Ranks:   sums,
			})
			_ = fr.Dump()
		}
		return run, nil
	}
	return nil, fmt.Errorf("audit: unknown engine kind %q", spec.Kind)
}
