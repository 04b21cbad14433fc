package audit

import (
	"fmt"
	"math"

	"repro/internal/blockcg"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/workload"
)

// blockRHS builds a config's K right-hand sides: column 0 is the problem's
// canonical b (so the gang's first column re-solves exactly the system the
// engine matrix audited), and each further column is a deterministic
// splitmix64 vector derived from the config seed — distinct systems, same
// provenance.
func blockRHS(cfg Config, pr workload.Problem) [][]float64 {
	bs := make([][]float64, cfg.K)
	bs[0] = pr.B
	for j := 1; j < cfg.K; j++ {
		state := cfg.Seed ^ (uint64(j) * 0xd1342543de82ef95)
		b := make([]float64, len(pr.B))
		for i := range b {
			b[i] = float64(splitmix64(&state)>>11)/(1<<52) - 1
		}
		bs[j] = b
	}
	return bs
}

// AuditBlock audits the block subsystem for a config with K > 1: it solves
// each of the K right-hand sides solo on a fresh sequential engine (the
// ground truth), then runs all K as ONE gang solve (internal/blockcg) on
// another fresh engine, and holds every column to the block determinism
// contract — iterate, full convergence history, and counter ledger equal to
// the bit. It returns the violations and the number of solves executed.
func AuditBlock(cfg Config, ap AuditParams) ([]Violation, int) {
	spec := fmt.Sprintf("block[k=%d]", cfg.K)
	fail := func(kind, detail string, args ...any) []Violation {
		return []Violation{{Config: cfg, Spec: spec, Kind: kind,
			Detail: fmt.Sprintf(detail, args...)}}
	}
	pr, err := buildProblem(cfg)
	if err != nil {
		return fail("error", "%v", err), 0
	}
	meth, err := krylov.MethodByName(cfg.Method)
	if err != nil {
		return fail("error", "%v", err), 0
	}
	solver := meth.Solve
	opt := workload.DefaultOptions(pr)
	opt.S = cfg.S
	opt.MaxIter = ap.MaxIter
	opt.Norm = krylov.NormUnpreconditioned

	newEngine := func() (engine.Engine, error) {
		pc, err := workload.PC(workload.EffectivePC(meth, cfg.PC), pr)
		if err != nil {
			return nil, err
		}
		return engine.NewSeq(pr.Operator(), pc), nil
	}

	bs := blockRHS(cfg, pr)
	runs := 0

	// Solo ground truths: one fresh engine per column.
	type soloRun struct {
		res *krylov.Result
		err error
		c   engine.Engine
	}
	solo := make([]soloRun, cfg.K)
	for j := range solo {
		e, err := newEngine()
		if err != nil {
			return fail("error", "%v", err), runs
		}
		res, serr := solver(e, bs[j], opt)
		runs++
		solo[j] = soloRun{res: res, err: serr, c: e}
	}

	// One gang solve over the same columns.
	ge, err := newEngine()
	if err != nil {
		return fail("error", "%v", err), runs
	}
	cols := make([]blockcg.Column, cfg.K)
	for j := range cols {
		cols[j] = blockcg.Column{B: bs[j], Opt: opt}
	}
	out := blockcg.Solve(ge, solver, cols)
	runs++

	var vs []Violation
	for j := range cols {
		viol := func(detail string, args ...any) {
			vs = append(vs, Violation{Config: cfg, Spec: spec, Kind: "equivalence",
				Detail: fmt.Sprintf("col %d: %s", j, fmt.Sprintf(detail, args...))})
		}
		sres, gres := solo[j].res, out[j].Res
		if (solo[j].err == nil) != (out[j].Err == nil) {
			viol("error mismatch: solo %v vs gang %v", solo[j].err, out[j].Err)
			continue
		}
		if sres == nil || gres == nil {
			if sres != gres {
				viol("result presence mismatch: solo %v vs gang %v", sres != nil, gres != nil)
			}
			continue
		}
		if gres.Converged != sres.Converged || gres.Iterations != sres.Iterations {
			viol("outcome differs: gang converged=%v iters=%d vs solo converged=%v iters=%d",
				gres.Converged, gres.Iterations, sres.Converged, sres.Iterations)
		}
		if len(gres.X) != len(sres.X) {
			viol("iterate length %d vs %d", len(gres.X), len(sres.X))
			continue
		}
		for i := range gres.X {
			if math.Float64bits(gres.X[i]) != math.Float64bits(sres.X[i]) {
				viol("iterate differs at element %d: %x vs %x",
					i, math.Float64bits(gres.X[i]), math.Float64bits(sres.X[i]))
				break
			}
		}
		if len(gres.History) != len(sres.History) {
			viol("history length %d vs %d", len(gres.History), len(sres.History))
		} else {
			for i, hp := range gres.History {
				sp := sres.History[i]
				if hp.Iteration != sp.Iteration || hp.ReduceIndex != sp.ReduceIndex ||
					math.Float64bits(hp.RelRes) != math.Float64bits(sp.RelRes) {
					viol("history[%d] differs: {it=%d rel=%x ridx=%d} vs {it=%d rel=%x ridx=%d}",
						i, hp.Iteration, math.Float64bits(hp.RelRes), hp.ReduceIndex,
						sp.Iteration, math.Float64bits(sp.RelRes), sp.ReduceIndex)
					break
				}
			}
		}
		gc := out[j].Counters
		if d := ledgerDiff(&gc, solo[j].c.Counters()); d != "" {
			viol("counter ledger differs: %s", d)
		}
	}
	return vs, runs
}
