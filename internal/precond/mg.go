package precond

import (
	"fmt"

	"repro/internal/dense"
	"repro/internal/grid"
	"repro/internal/sparse"
)

// level is one level of a multigrid hierarchy. The finest level is index 0.
type level struct {
	a       *sparse.CSR
	p       *sparse.CSR // prolongation from the next-coarser level (nil on coarsest)
	pt      *sparse.CSR // restriction = pᵀ (cached)
	invDiag []float64
	// work buffers sized to this level
	x, b, r, tmp []float64
}

// MG is a multigrid V-cycle preconditioner. The hierarchy can be geometric
// (NewGMG, for structured-grid problems) or algebraic (NewAMG, smoothed
// aggregation — the GAMG stand-in). One application is one V(ν,ν)-cycle with
// weighted-Jacobi smoothing, which is symmetric positive definite and hence
// valid inside CG.
type MG struct {
	kind    string
	levels  []*level
	coarse  *dense.Cholesky
	nu      int     // pre- and post-smoothing steps
	omega   float64 // Jacobi damping
	applies int
}

func newLevel(a *sparse.CSR) *level {
	l := &level{a: a, invDiag: a.Diag()}
	for i, d := range l.invDiag {
		if d == 0 {
			d = 1
		}
		l.invDiag[i] = 1 / d
	}
	n := a.Rows
	l.x = make([]float64, n)
	l.b = make([]float64, n)
	l.r = make([]float64, n)
	l.tmp = make([]float64, n)
	return l
}

// maxDenseCoarse bounds the coarsest level a V-cycle will factor densely;
// larger coarse levels (possible when aggregation stalls) fall back to an
// iterative coarse solve.
const maxDenseCoarse = 3000

func (m *MG) finish() error {
	last := m.levels[len(m.levels)-1]
	n := last.a.Rows
	if n > maxDenseCoarse {
		m.coarse = nil // iterative coarse solve (see vcycle)
		return nil
	}
	d := dense.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for k := last.a.RowPtr[i]; k < last.a.RowPtr[i+1]; k++ {
			d.Set(i, int(last.a.Col[k]), last.a.Val[k])
		}
	}
	ch, err := dense.FactorCholesky(dense.SymmetrizedCopy(d))
	if err != nil {
		return fmt.Errorf("precond: coarse factorization failed: %w", err)
	}
	m.coarse = ch
	return nil
}

// NewGMG builds a geometric multigrid V-cycle for the operator a discretized
// on g, coarsening the grid until it has at most coarseSize unknowns.
func NewGMG(g grid.Grid, a *sparse.CSR, coarseSize int) (*MG, error) {
	if a.Rows != g.N() {
		return nil, fmt.Errorf("precond: matrix rows %d do not match grid size %d", a.Rows, g.N())
	}
	if coarseSize < 8 {
		coarseSize = 8
	}
	m := &MG{kind: "mg", nu: 1, omega: 0.8}
	cur := g
	ca := a
	for ca.Rows > coarseSize {
		lv := newLevel(ca)
		lv.p = cur.Prolongation()
		lv.pt = lv.p.Transpose()
		m.levels = append(m.levels, lv)
		ca = sparse.TripleProduct(lv.p, ca)
		next := cur.Coarsen()
		if next.N() >= cur.N() { // can't coarsen further
			break
		}
		cur = next
	}
	m.levels = append(m.levels, newLevel(ca))
	if err := m.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// smooth performs nu weighted-Jacobi steps x += ω·D⁻¹·(b - A·x).
func (l *level) smooth(omega float64, nu int) {
	for s := 0; s < nu; s++ {
		l.a.MulVec(l.tmp, l.x)
		for i := range l.x {
			l.x[i] += omega * l.invDiag[i] * (l.b[i] - l.tmp[i])
		}
	}
}

// vcycle runs one V-cycle at level k (x, b already set on that level).
func (m *MG) vcycle(k int) {
	l := m.levels[k]
	if k == len(m.levels)-1 {
		if m.coarse == nil {
			// Iterative coarse solve: damped-Jacobi sweeps (symmetric, so
			// the V-cycle remains a valid CG preconditioner).
			for i := range l.x {
				l.x[i] = 0
			}
			l.smooth(m.omega, 30)
			return
		}
		sol := m.coarse.Solve(l.b)
		copy(l.x, sol)
		return
	}
	l.smooth(m.omega, m.nu)
	// Residual and restriction.
	l.a.MulVec(l.tmp, l.x)
	for i := range l.r {
		l.r[i] = l.b[i] - l.tmp[i]
	}
	next := m.levels[k+1]
	l.pt.MulVec(next.b, l.r)
	for i := range next.x {
		next.x[i] = 0
	}
	m.vcycle(k + 1)
	// Prolongate and correct.
	l.p.MulVec(l.tmp, next.x)
	for i := range l.x {
		l.x[i] += l.tmp[i]
	}
	l.smooth(m.omega, m.nu)
}

// Apply implements engine.Preconditioner: dst = one V-cycle applied to src
// from a zero initial guess.
func (m *MG) Apply(dst, src []float64) {
	fine := m.levels[0]
	copy(fine.b, src)
	for i := range fine.x {
		fine.x[i] = 0
	}
	m.vcycle(0)
	copy(dst, fine.x)
	m.applies++
}

// Name implements engine.Preconditioner.
func (m *MG) Name() string { return m.kind }

// Levels returns the number of hierarchy levels.
func (m *MG) Levels() int { return len(m.levels) }

// WorkPerApply implements engine.Preconditioner: per V-cycle, each level does
// 2·nu smoothing SpMVs plus one residual SpMV plus the two grid transfers.
func (m *MG) WorkPerApply() (float64, float64, int, int) {
	var flops, bytes float64
	p2p := 0
	for k, l := range m.levels {
		nnz := float64(l.a.NNZ())
		n := float64(l.a.Rows)
		if k == len(m.levels)-1 {
			flops += n * n // dense back/forward substitution
			bytes += 8 * n * n
			continue
		}
		spmvs := float64(2*m.nu + 1)
		flops += spmvs*2*nnz + float64(2*m.nu)*3*n
		bytes += spmvs*(12*nnz+16*n) + float64(2*m.nu)*32*n
		pnnz := float64(l.p.NNZ())
		flops += 2 * 2 * pnnz
		bytes += 2 * (12*pnnz + 16*n)
		p2p += 2*m.nu + 1 + 2 // smoothing + residual SpMV halos + transfers
	}
	return flops, bytes, p2p, 0
}
