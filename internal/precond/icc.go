package precond

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// ICC is the zero-fill incomplete Cholesky preconditioner ICC(0):
// A ≈ L·Lᵀ with L restricted to the sparsity of A's lower triangle, applied
// as two sparse triangular solves. When the factorization meets a
// non-positive pivot (possible for matrices that are not M-matrices), the
// constructor retries with a growing diagonal shift — the standard
// "Manteuffel shift" strategy.
type ICC struct {
	n     int
	l     *sparse.CSR // lower triangle, columns sorted, diagonal last is NOT assumed
	diag  []float64   // L's diagonal entries (cached)
	shift float64     // the diagonal shift that made the factorization succeed
}

// NewICC factors rows of the SPD matrix a with zero fill. maxTries bounds
// the shift escalation (≥1; 8 is plenty in practice).
func NewICC(a *sparse.CSR, maxTries int) (*ICC, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("precond: ICC needs a square matrix, got %d×%d", a.Rows, a.Cols)
	}
	if maxTries < 1 {
		maxTries = 8
	}
	shift := 0.0
	for try := 0; try < maxTries; try++ {
		ic, err := factorICC(a, shift)
		if err == nil {
			ic.shift = shift
			return ic, nil
		}
		if shift == 0 {
			shift = 1e-3
		} else {
			shift *= 10
		}
	}
	return nil, fmt.Errorf("precond: ICC(0) failed even with diagonal shift")
}

// factorICC attempts the zero-fill factorization of A + shift·diag(A).
func factorICC(a *sparse.CSR, shift float64) (*ICC, error) {
	n := a.Rows
	// Extract the lower triangle pattern (strictly lower + diagonal).
	lb := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.Col[k]) <= i {
				lb.Col = append(lb.Col, a.Col[k])
				lb.Val = append(lb.Val, a.Val[k])
			}
		}
		lb.RowPtr[i+1] = len(lb.Col)
	}
	diag := make([]float64, n)

	// Row-wise up-looking factorization over the fixed pattern.
	for i := 0; i < n; i++ {
		rowStart, rowEnd := lb.RowPtr[i], lb.RowPtr[i+1]
		if rowEnd == rowStart || int(lb.Col[rowEnd-1]) != i {
			return nil, fmt.Errorf("precond: ICC row %d has no diagonal", i)
		}
		for kk := rowStart; kk < rowEnd; kk++ {
			k := int(lb.Col[kk])
			// s = a_ik - Σ_{j<k} l_ij·l_kj over the shared pattern.
			s := lb.Val[kk]
			if k == i {
				s += shift * math.Abs(lb.Val[kk])
			}
			pi, pk := rowStart, lb.RowPtr[k]
			endI, endK := kk, lb.RowPtr[k+1]-1 // exclude l_kk itself
			for pi < endI && pk < endK {
				ci, ck := lb.Col[pi], lb.Col[pk]
				switch {
				case ci == ck:
					s -= lb.Val[pi] * lb.Val[pk]
					pi++
					pk++
				case ci < ck:
					pi++
				default:
					pk++
				}
			}
			if k == i {
				if s <= 0 || math.IsNaN(s) {
					return nil, fmt.Errorf("precond: ICC pivot %g at row %d", s, i)
				}
				d := math.Sqrt(s)
				lb.Val[kk] = d
				diag[i] = d
			} else {
				lb.Val[kk] = s / diag[k]
			}
		}
	}
	return &ICC{n: n, l: lb, diag: diag}, nil
}

// Apply implements engine.Preconditioner: dst = (L·Lᵀ)⁻¹·src.
func (ic *ICC) Apply(dst, src []float64) {
	n, l := ic.n, ic.l
	// Forward solve L·y = src.
	y := dst // reuse
	for i := 0; i < n; i++ {
		s := src[i]
		end := l.RowPtr[i+1] - 1 // diagonal is the last entry of the row
		for k := l.RowPtr[i]; k < end; k++ {
			s -= l.Val[k] * y[l.Col[k]]
		}
		y[i] = s / ic.diag[i]
	}
	// Backward solve Lᵀ·z = y, in place (column sweep of L).
	for i := n - 1; i >= 0; i-- {
		y[i] /= ic.diag[i]
		zi := y[i]
		end := l.RowPtr[i+1] - 1
		for k := l.RowPtr[i]; k < end; k++ {
			y[l.Col[k]] -= l.Val[k] * zi
		}
	}
}

// Name implements engine.Preconditioner.
func (ic *ICC) Name() string { return "icc" }

// Shift reports the diagonal shift used (0 when none was needed).
func (ic *ICC) Shift() float64 { return ic.shift }

// WorkPerApply implements engine.Preconditioner.
func (ic *ICC) WorkPerApply() (float64, float64, int, int) {
	nnz := float64(ic.l.NNZ())
	n := float64(ic.n)
	return 4*nnz + 2*n, 24*nnz + 32*n, 0, 0
}
