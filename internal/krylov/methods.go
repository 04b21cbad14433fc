package krylov

import "fmt"

// Method is one entry of the solver registry: the name the CLIs, the service
// and the harnesses use for a solver, and the traits they branch on.
type Method struct {
	Name  string
	Solve Solver
	// SStep reports that the method consumes Options.S.
	SStep bool
	// Unpreconditioned reports that the method ignores the preconditioner.
	Unpreconditioned bool
}

// Methods lists every implemented solver in presentation order, the
// resilience ladder last. It is the one name → solver table of the
// repository; shorter lists elsewhere (a figure's methods, a sweep axis) are
// selections from it.
var Methods = []Method{
	{Name: "pcg", Solve: PCG},
	{Name: "cg-cg", Solve: CGCG},
	{Name: "groppcg", Solve: GROPPCG},
	{Name: "pipecg", Solve: PIPECG},
	{Name: "pipecg3", Solve: PIPECG3},
	{Name: "pipecg-oati", Solve: PIPECGOATI},
	{Name: "pipe-pr-cg", Solve: PIPEPRCG},
	{Name: "pipe-m-cg-rr", Solve: PIPEMCGRR},
	{Name: "scg", Solve: SCG, SStep: true, Unpreconditioned: true},
	{Name: "pscg", Solve: PSCG, SStep: true},
	{Name: "scg-s", Solve: SCGS, SStep: true, Unpreconditioned: true},
	{Name: "pipe-scg", Solve: PIPESCG, SStep: true, Unpreconditioned: true},
	{Name: "pipe-pscg", Solve: PIPEPSCG, SStep: true},
	{Name: "hybrid", Solve: Hybrid, SStep: true},
	{Name: "ladder", Solve: SolveLadder, SStep: true},
}

// MethodByName returns the registry entry for a method name.
func MethodByName(name string) (Method, error) {
	for _, m := range Methods {
		if m.Name == name {
			return m, nil
		}
	}
	return Method{}, fmt.Errorf("krylov: unknown method %q", name)
}
