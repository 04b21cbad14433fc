package krylov

import (
	"fmt"
	"math"

	"repro/internal/engine"
)

// Rung is one formulation of an escalation list: a solver plus the in-solver
// policy it runs under.
type Rung struct {
	Name  string
	Solve Solver
	// recover arms the s-step recovery policy (Options.recover); stall the
	// stagnation stop (Options.stall).
	recover bool
	stall   stagnation
}

// LadderRungs is the graceful-degradation sequence SolveLadder walks, every
// rung with in-solver recovery on: the paper's headline method first, then
// progressively more conservative formulations. Cools & Vanroose's
// stability analysis (PAPERS.md) is the ordering's rationale — pipelined
// s-step recurrences amplify perturbations the most, the residual-
// replacement pipelined CG less (it keeps the overlapped schedule but gives
// up the s-step basis, the usual first casualty on ill-conditioned systems),
// classical s-step less again, plain PCG least.
var LadderRungs = []Rung{
	{Name: "pipe-pscg", Solve: PIPEPSCG, recover: true},
	{Name: "pipe-m-cg-rr", Solve: PIPEMCGRR, recover: true},
	{Name: "pscg", Solve: PSCG, recover: true},
	{Name: "pcg", Solve: PCG, recover: true},
}

// LadderError is the typed failure of a resilience-ladder solve: every rung
// was exhausted (or the iteration budget ran out) without reaching the
// tolerance. Result carries the best merged outcome.
type LadderError struct {
	Result *Result
	Rung   string // last rung attempted
}

// Error implements error.
func (e *LadderError) Error() string {
	return fmt.Sprintf("krylov: resilience ladder exhausted at rung %q: relres %.3g after %d iterations (stagnated=%v diverged=%v brokedown=%v)",
		e.Rung, e.Result.RelRes, e.Result.Iterations,
		e.Result.Stagnated, e.Result.Diverged, e.Result.BrokeDown)
}

// SolveLadder is the solver resilience ladder: it escalates through
// LadderRungs and returns nil on convergence, the backend's comm error, or
// a typed *LadderError carrying the merged result when the rungs or the
// budget run out — never a silent wrong answer.
func SolveLadder(e engine.Engine, b []float64, opt Options) (*Result, error) {
	res, last, err := escalate(e, b, opt, "resilience-ladder", LadderRungs)
	if err != nil || res.Converged {
		return res, err
	}
	return res, &LadderError{Result: res, Rung: last}
}

// escalate walks rungs in order, each from the merged best iterate with the
// remaining MaxIter budget, merging results under name. A rung that stops
// short with a rung after it counts a stepdown (and a recovery). The walk
// stops on convergence, a backend error, an empty budget (last then names
// the rung it could not start) or after the last rung. Every decision reads
// globally reduced values, so all SPMD ranks walk the list identically.
func escalate(e engine.Engine, b []float64, opt Options, name string, rungs []Rung) (merged *Result, last string, err error) {
	for i, rung := range rungs {
		last = rung.Name
		ro := opt
		ro.recover, ro.stall = rung.recover, rung.stall
		if merged != nil {
			ro.X0 = merged.X
			ro.MaxIter -= merged.Iterations
		}
		if ro.MaxIter <= 0 {
			break
		}
		r, err := rung.Solve(e, b, ro)
		merged = mergeResults(merged, r, name)
		if err != nil || merged.Converged {
			return merged, last, err
		}
		if i < len(rungs)-1 {
			c := e.Counters()
			c.Recoveries++
			c.LadderStepdowns++
		}
	}
	if merged == nil {
		merged = &Result{Method: name, RelRes: math.NaN()}
	}
	return merged, last, nil
}

// mergeResults concatenates a follow-on rung's result r2 onto an
// accumulated one, offsetting the rung's iteration numbering, and names the
// merge. Either may be nil (no rung yet, a rung failed before a result).
func mergeResults(acc, r2 *Result, name string) *Result {
	switch {
	case r2 == nil:
		return acc
	case acc == nil:
		r2.Method = name
		return r2
	}
	out := &Result{
		Method:     name,
		X:          r2.X,
		Iterations: acc.Iterations + r2.Iterations,
		Outer:      acc.Outer + r2.Outer,
		Converged:  r2.Converged,
		Stagnated:  r2.Stagnated,
		BrokeDown:  r2.BrokeDown,
		Diverged:   r2.Diverged,
		RelRes:     r2.RelRes,
	}
	out.History = append(out.History, acc.History...)
	for _, h := range r2.History {
		out.History = append(out.History, HistPoint{
			Iteration: h.Iteration + acc.Iterations, RelRes: h.RelRes,
			ReduceIndex: h.ReduceIndex})
	}
	return out
}
