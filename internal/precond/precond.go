// Package precond implements the preconditioners the paper's evaluation
// uses — Jacobi (the default for the scaling experiments), SOR (as symmetric
// SSOR, the form valid inside CG), geometric multigrid (MG) and a smoothed-
// aggregation algebraic multigrid standing in for PETSc's GAMG — plus
// block-Jacobi and Chebyshev polynomial extras.
//
// Every preconditioner is symmetric positive definite, as CG requires, and
// reports a cost model (flops, bytes, communication rounds per application)
// that the virtual-clock simulator prices.
package precond

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// Identity is the no-op preconditioner (unpreconditioned CG variants).
type Identity struct{}

// Apply implements engine.Preconditioner.
func (Identity) Apply(dst, src []float64) { copy(dst, src) }

// Name implements engine.Preconditioner.
func (Identity) Name() string { return "none" }

// WorkPerApply implements engine.Preconditioner.
func (Identity) WorkPerApply() (float64, float64, int, int) { return 0, 0, 0, 0 }

// Diagonal implements engine.DiagonalPC: M = I.
func (Identity) Diagonal() []float64 { return nil }

// InvDiagonal implements engine.DiagonalPC: Apply is a copy.
func (Identity) InvDiagonal() []float64 { return nil }

// Jacobi is diagonal scaling: M = diag(A).
type Jacobi struct {
	diag, invDiag []float64
}

// NewJacobi builds the Jacobi preconditioner for rows [lo, hi) of a. Rows
// with a zero diagonal get a unit scale (keeps the operator well defined).
func NewJacobi(a *sparse.CSR, lo, hi int) *Jacobi {
	d := a.DiagRange(lo, hi)
	inv := make([]float64, len(d))
	for i := range d {
		if d[i] == 0 {
			d[i] = 1
		}
		inv[i] = 1 / d[i]
	}
	return &Jacobi{diag: d, invDiag: inv}
}

// Apply implements engine.Preconditioner.
func (j *Jacobi) Apply(dst, src []float64) {
	vec.MulInto(dst[:len(src)], src, j.invDiag)
}

// Name implements engine.Preconditioner.
func (j *Jacobi) Name() string { return "jacobi" }

// Diagonal implements engine.DiagonalPC: M = diag(A), zero entries as 1.
func (j *Jacobi) Diagonal() []float64 { return j.diag }

// InvDiagonal implements engine.DiagonalPC: the factors Apply multiplies by.
func (j *Jacobi) InvDiagonal() []float64 { return j.invDiag }

// WorkPerApply implements engine.Preconditioner.
func (j *Jacobi) WorkPerApply() (float64, float64, int, int) {
	n := float64(len(j.invDiag))
	return n, 24 * n, 0, 0
}

// SSOR is the symmetric successive over-relaxation preconditioner,
//
//	M = ω/(2-ω) · (D/ω + L) · D⁻¹ · (D/ω + U),
//
// applied over a contiguous row block with off-block couplings dropped — the
// processor-block SOR PETSc's PCSOR uses in parallel. With lo=0, hi=n it is
// the exact global SSOR.
type SSOR struct {
	a      *sparse.CSR
	lo, hi int
	omega  float64
	diag   []float64
	sweeps int

	// Apply scratch, allocated once. A preconditioner instance is owned by a
	// single rank, so reusing these across calls is race-free.
	y, z, res []float64
}

// NewSSOR builds an SSOR preconditioner for rows [lo, hi) of a with
// relaxation factor omega in (0, 2) and the given number of symmetric sweeps
// (≥1).
func NewSSOR(a *sparse.CSR, lo, hi int, omega float64, sweeps int) *SSOR {
	if omega <= 0 || omega >= 2 {
		panic(fmt.Sprintf("precond: SSOR omega %g outside (0,2)", omega))
	}
	if sweeps < 1 {
		sweeps = 1
	}
	d := a.DiagRange(lo, hi)
	for i, v := range d {
		if v == 0 {
			d[i] = 1
		}
	}
	n := hi - lo
	return &SSOR{a: a, lo: lo, hi: hi, omega: omega, diag: d, sweeps: sweeps,
		y: make([]float64, n), z: make([]float64, n), res: make([]float64, n)}
}

// Apply implements engine.Preconditioner: dst = M⁻¹·src.
//
// The triangular sweeps carry a loop dependence and stay serial; the
// residual recompute between sweeps is elementwise over rows and runs on the
// shared worker pool.
func (s *SSOR) Apply(dst, src []float64) {
	a, lo, hi, w := s.a, s.lo, s.hi, s.omega
	n := hi - lo
	y := s.y
	for i := range dst[:n] {
		dst[i] = 0
	}
	for sweep := 0; sweep < s.sweeps; sweep++ {
		rhs := src
		if sweep > 0 {
			// Additional sweeps refine: r = src - M_prev·..., we use simple
			// re-application composition (still symmetric): dst += M⁻¹(src - A·dst)
			res := s.res
			par.Default().Range(n, func(c0, c1 int) {
				for ii := c0; ii < c1; ii++ {
					i := lo + ii
					var ax float64
					for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
						c := int(a.Col[k])
						if c >= lo && c < hi {
							ax += a.Val[k] * dst[c-lo]
						}
					}
					res[ii] = src[ii] - ax
				}
			})
			rhs = res
		}
		// Forward solve: (D/ω + L)·y = rhs.
		for i := lo; i < hi; i++ {
			sum := rhs[i-lo]
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				c := int(a.Col[k])
				if c >= lo && c < i {
					sum -= a.Val[k] * y[c-lo]
				}
			}
			y[i-lo] = sum * w / s.diag[i-lo]
		}
		// Scale: y ← D·y · (2-ω)/ω.
		for i := 0; i < n; i++ {
			y[i] *= s.diag[i] * (2 - w) / w
		}
		// Backward solve: (D/ω + U)·z = y, accumulated into dst.
		z := s.z
		for i := hi - 1; i >= lo; i-- {
			sum := y[i-lo]
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				c := int(a.Col[k])
				if c > i && c < hi {
					sum -= a.Val[k] * z[c-lo]
				}
			}
			z[i-lo] = sum * w / s.diag[i-lo]
		}
		vec.Axpy(dst[:n], 1, z)
	}
}

// Name implements engine.Preconditioner.
func (s *SSOR) Name() string { return "sor" }

// WorkPerApply implements engine.Preconditioner.
func (s *SSOR) WorkPerApply() (float64, float64, int, int) {
	nnz := float64(s.a.RowPtr[s.hi] - s.a.RowPtr[s.lo])
	n := float64(s.hi - s.lo)
	perSweep := 4*nnz + 6*n // forward + backward triangular sweeps
	return float64(s.sweeps) * perSweep, float64(s.sweeps) * (24*nnz + 48*n), 0, 0
}
