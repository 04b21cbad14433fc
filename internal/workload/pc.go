package workload

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/precond"
	"repro/internal/sparse"
)

// rankLocal is the part of the preconditioner table that needs only a row
// block of the matrix — the preconditioners the comm runtime can build per
// rank. SSOR over a rank's own rows is processor-block SSOR, PETSc's
// parallel PCSOR behaviour. PC builds the same entries over all rows.
var rankLocal = map[string]comm.PCFactory{
	"jacobi": func(a *sparse.CSR, lo, hi int) engine.Preconditioner {
		return precond.NewJacobi(a, lo, hi)
	},
	"sor": func(a *sparse.CSR, lo, hi int) engine.Preconditioner {
		return precond.NewSSOR(a, lo, hi, 1.0, 1)
	},
}

// RankPC returns the comm runtime's rank-local factory for a preconditioner
// name; "none" and "" are the identity (a nil factory). Any other name — a
// whole-matrix preconditioner or a typo — is an error: a multi-rank solve
// must never fall back to identity silently.
func RankPC(name string) (comm.PCFactory, error) {
	if name == "" || name == "none" {
		return nil, nil
	}
	if f, ok := rankLocal[name]; ok {
		return f, nil
	}
	return nil, fmt.Errorf("rank-local PCs only (jacobi, sor, none), got %q", name)
}

// PC builds a whole-matrix preconditioner by name for a problem. Supported
// names: none, jacobi, sor, bjacobi, chebyshev, icc, mg (structured problems
// only), gamg.
func PC(name string, pr Problem) (engine.Preconditioner, error) {
	build := pcBuilder(name)
	if build == nil {
		return nil, unknownPC(name)
	}
	return build(pr)
}

// CheckPC reports an error for a name PC does not know, building nothing:
// the check a service makes before it accepts a request.
func CheckPC(name string) error {
	if pcBuilder(name) == nil {
		return unknownPC(name)
	}
	return nil
}

func unknownPC(name string) error { return fmt.Errorf("workload: unknown preconditioner %q", name) }

// pcBuilder is PC's name table: the builder of the named preconditioner, or
// nil for an unknown name.
func pcBuilder(name string) func(Problem) (engine.Preconditioner, error) {
	if f, _ := RankPC(name); f != nil {
		return func(pr Problem) (engine.Preconditioner, error) { return f(pr.A, 0, pr.A.Rows), nil }
	}
	switch name {
	case "none", "":
		return func(Problem) (engine.Preconditioner, error) { return nil, nil }
	case "bjacobi":
		return func(pr Problem) (engine.Preconditioner, error) { return precond.NewBlockJacobi(pr.A, 16), nil }
	case "chebyshev":
		return func(pr Problem) (engine.Preconditioner, error) { return precond.NewChebyshev(pr.A, 4, 30), nil }
	case "icc":
		return func(pr Problem) (engine.Preconditioner, error) { return precond.NewICC(pr.A, 8) }
	case "mg":
		return func(pr Problem) (engine.Preconditioner, error) {
			if pr.Grid == nil {
				return nil, fmt.Errorf("workload: %s is unstructured; mg needs a grid", pr.Name)
			}
			return precond.NewGMG(*pr.Grid, pr.A, 600)
		}
	case "gamg":
		return func(pr Problem) (engine.Preconditioner, error) { return precond.NewAMG(pr.A, precond.AMGOptions{}) }
	}
	return nil
}

// EffectivePC is the preconditioner name a solve really runs with: a method
// that ignores its preconditioner runs with "none", whatever was asked for.
func EffectivePC(m krylov.Method, name string) string {
	if m.Unpreconditioned {
		return "none"
	}
	return name
}
