package main

import (
	"fmt"
	"math"
	"sync"
)

// gate is the correctness ledger of one run: every operation is counted as
// attempted, and as failed when it did not converge, missed the residual
// check, disagreed with an earlier x_hash for the same system, or could not
// be delivered. A run with any failure exits non-zero.
type gate struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string          // the first few, for the report
	hashes    map[string]string // system key → x_hash first seen
	relresMax float64
}

func newGate() *gate { return &gate{hashes: map[string]string{}} }

const keptFailures = 8

func (g *gate) pass() {
	g.mu.Lock()
	g.attempted++
	g.mu.Unlock()
}

func (g *gate) fail(format string, args ...any) {
	g.mu.Lock()
	g.attempted++
	g.failed++
	if len(g.failures) < keptFailures {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
	g.mu.Unlock()
}

// check counts one operation, failed when err is non-nil.
func (g *gate) check(err error) {
	if err != nil {
		g.fail("%v", err)
		return
	}
	g.pass()
}

// agree records hash for the system key and reports whether it matches the
// hash every earlier solve of the same system returned.
func (g *gate) agree(key, hash string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	first, seen := g.hashes[key]
	if !seen {
		g.hashes[key] = hash
		return nil
	}
	if first != hash {
		return fmt.Errorf("x_hash mismatch for %s: %s then %s", key, first, hash)
	}
	return nil
}

// residualFactor × rtol is the outcome-tier bound of the audit harness: the
// true residual of an iterate the solver called converged at rtol.
const residualFactor = 50

// trueRelRes recomputes the quantity the program's convergence test bounds by
// rtol — ‖M⁻¹(b − A·x)‖ / ‖b‖ with M = diag(A), the Jacobi preconditioner
// every workload uses — from the returned iterate through the raw assembled
// operator, never through an engine or a preconditioner object. (The
// unpreconditioned ratio ‖b − A·x‖/‖b‖ is larger by the diagonal, 124 on the
// 125-point operator, so it exceeds 50 × rtol by construction of the
// program's default norm, not through any error.)
func trueRelRes(a *csrMatrix, x, b []float64) float64 {
	if len(x) != a.Cols || len(b) != a.Rows {
		return math.Inf(1)
	}
	r := make([]float64, a.Rows)
	a.MulVec(r, x)
	diag := a.Diag()
	var zz, bb float64
	for i := range r {
		z := b[i] - r[i]
		if diag[i] != 0 {
			z /= diag[i]
		}
		zz += z * z
		bb += b[i] * b[i]
	}
	if bb == 0 {
		return math.Sqrt(zz)
	}
	return math.Sqrt(zz / bb)
}

// checkIterate is the residual gate for one returned iterate.
func (g *gate) checkIterate(what string, converged bool, a *csrMatrix, x, b []float64, rtol float64) error {
	if !converged {
		return fmt.Errorf("%s: not converged", what)
	}
	rel := trueRelRes(a, x, b)
	g.mu.Lock()
	if rel > g.relresMax || math.IsNaN(rel) {
		g.relresMax = rel
	}
	g.mu.Unlock()
	if !(rel <= residualFactor*rtol) { // written so NaN fails
		return fmt.Errorf("%s: true residual %.3e exceeds %d x rtol %.0e", what, rel, residualFactor, rtol)
	}
	return nil
}
