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
	a := pr.A
	if f, _ := RankPC(name); f != nil {
		return f(a, 0, a.Rows), nil
	}
	switch name {
	case "none", "":
		return nil, nil
	case "bjacobi":
		return precond.NewBlockJacobi(a, 16), nil
	case "chebyshev":
		return precond.NewChebyshev(a, 4, 30), nil
	case "icc":
		return precond.NewICC(a, 8)
	case "mg":
		if pr.Grid == nil {
			return nil, fmt.Errorf("workload: %s is unstructured; mg needs a grid", pr.Name)
		}
		return precond.NewGMG(*pr.Grid, a, 600)
	case "gamg":
		return precond.NewAMG(a, precond.AMGOptions{})
	}
	return nil, fmt.Errorf("workload: unknown preconditioner %q", name)
}

// EffectivePC is the preconditioner name a solve really runs with: a method
// that ignores its preconditioner runs with "none", whatever was asked for.
func EffectivePC(m krylov.Method, name string) string {
	if m.Unpreconditioned {
		return "none"
	}
	return name
}
