package krylov

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/precond"
	"repro/internal/trace"
)

// TestConcurrentSolvesBitIdentical: solves that share the par pool — service
// jobs, comm ranks — lease whatever helpers are free region by region, so one
// solve's kernels run on both cores, one core or the caller alone depending on
// what the others are doing. None of that may reach the numbers: four
// different methods solved at once give the iterate, history and counters of
// their solo solves, at every pool size.
func TestConcurrentSolvesBitIdentical(t *testing.T) {
	defer par.SetWorkers(0)
	a := grid.NewCube(24, grid.Star7).Laplacian() // 13 824 rows: four chunks per vector region
	b := grid.OnesRHS(a)
	opt := Defaults()
	methods := []string{"pcg", "pipecg", "pscg", "pipe-pscg"}

	type outcome struct {
		res *Result
		c   trace.Counters
	}
	solve := func(name string) (outcome, error) {
		m, err := MethodByName(name)
		if err != nil {
			return outcome{}, err
		}
		e := engine.NewSeq(a, precond.NewJacobi(a, 0, a.Rows))
		res, err := m.Solve(e, b, opt)
		if err != nil || !res.Converged {
			return outcome{}, fmt.Errorf("%s: converged=%v: %v", name, res != nil && res.Converged, err)
		}
		return outcome{res, *e.Counters()}, nil
	}

	par.SetWorkers(1)
	solo := make([]outcome, len(methods))
	for i, name := range methods {
		var err error
		if solo[i], err = solve(name); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []int{1, 2, 4} {
		par.SetWorkers(w)
		got := make([]outcome, len(methods))
		errs := make([]error, len(methods))
		var wg sync.WaitGroup
		for i, name := range methods {
			wg.Add(1)
			go func(i int, name string) {
				defer wg.Done()
				got[i], errs[i] = solve(name)
			}(i, name)
		}
		wg.Wait()
		for i, name := range methods {
			if errs[i] != nil {
				t.Fatalf("workers=%d: %v", w, errs[i])
			}
			want, g := solo[i], got[i]
			for k := range want.res.X {
				if math.Float64bits(g.res.X[k]) != math.Float64bits(want.res.X[k]) {
					t.Fatalf("workers=%d %s: x[%d] = %x, solo %x", w, name, k,
						math.Float64bits(g.res.X[k]), math.Float64bits(want.res.X[k]))
				}
			}
			if !reflect.DeepEqual(g.res.History, want.res.History) {
				t.Errorf("workers=%d %s: history differs from the solo solve", w, name)
			}
			if g.c != want.c {
				t.Errorf("workers=%d %s: counters %+v, solo %+v", w, name, g.c, want.c)
			}
		}
	}
}
