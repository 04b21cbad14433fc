package grid

import (
	"fmt"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/sparse"
)

// StencilOp is a matrix-free operator for the Star5/Star7 and Box27/Box125
// grid Laplacians: the same SPD operator Grid.Laplacian assembles, applied
// directly from the grid geometry with no stored values or column indices.
// Per row the CSR kernel streams 12 bytes per nonzero (8 B value + 4 B int32
// column index) on top of the vector traffic; the stencil touches only the
// vectors, which is the whole win on these bandwidth-bound products — on the
// paper's 125-point operator, 1.5 KB of matrix per row.
//
// Bit-for-bit contract with the assembled matrix: every row accumulates its
// terms in exactly the CSR kernel's order — ascending column, 4-way unrolled
// batches combined as (s0+s1)+(s2+s3), remainder folded into s0 — and the
// parallel chunk geometry is planned over a synthetic row-pointer array
// identical to the assembled matrix's RowPtr. A solve through a StencilOp
// produces the same bits as one through Grid.Laplacian() at any worker
// count.
type StencilOp struct {
	g      Grid
	n      int
	r      int // box radius (1 Box27, 2 Box125); 0 for the star stencils
	diag   float64
	rowPtr []int // synthetic prefix-nnz: chunk-plan parity with the CSR form
	shapes []boxShape

	plan atomic.Pointer[sparse.Chunks]
}

// NewStencilOp returns the matrix-free operator for g: Star7 on 3D grids,
// Star5 on 2D grids, and Box27/Box125 on grids of any size. Box9 returns an
// error and stays on the assembled CSR path.
func NewStencilOp(g Grid) (*StencilOp, error) {
	r := 0
	switch g.Stencil {
	case Star7:
		if g.Nz <= 1 {
			return nil, fmt.Errorf("grid: Star7 stencil needs a 3D grid, got %dx%dx%d", g.Nx, g.Ny, g.Nz)
		}
	case Star5:
		if g.Nz != 1 {
			return nil, fmt.Errorf("grid: Star5 stencil needs a 2D grid, got %dx%dx%d", g.Nx, g.Ny, g.Nz)
		}
	case Box27:
		r = 1
	case Box125:
		r = 2
	default:
		return nil, fmt.Errorf("grid: no matrix-free kernel for the %v stencil", g.Stencil)
	}
	s := &StencilOp{g: g, n: g.N(), r: r, diag: float64(len(g.Stencil.offsets()))}
	s.rowPtr = make([]int, s.n+1)
	i := 0
	for z := 0; z < g.Nz; z++ {
		for y := 0; y < g.Ny; y++ {
			for x := 0; x < g.Nx; x++ {
				// The diagonal plus the in-range neighbours of each axis.
				cnt := span(g.Nx, x, 1) + span(g.Ny, y, 1) - 1
				switch {
				case r > 0:
					cnt = span(g.Nx, x, r) * span(g.Ny, y, r) * span(g.Nz, z, r)
				case g.Stencil == Star7:
					cnt += span(g.Nz, z, 1) - 1
				}
				s.rowPtr[i+1] = s.rowPtr[i] + cnt
				i++
			}
		}
	}
	if r > 0 {
		s.buildShapes()
	}
	return s, nil
}

// span is the number of points of a length-n axis within r of point p.
func span(n, p, r int) int { return min(p+r, n-1) - max(p-r, 0) + 1 }

// MatrixFree returns the matrix-free operator for g when one exists.
func (g Grid) MatrixFree() (*StencilOp, bool) {
	s, err := NewStencilOp(g)
	return s, err == nil
}

// Grid returns the grid geometry the operator applies.
func (s *StencilOp) Grid() Grid { return s.g }

// Dims implements engine.Operator.
func (s *StencilOp) Dims() (rows, cols int) { return s.n, s.n }

// NNZ returns the nonzero count of the equivalent assembled matrix.
func (s *StencilOp) NNZ() int { return s.rowPtr[s.n] }

// Diag returns the operator diagonal: the full stencil neighbor count at
// every point (Dirichlet keeps the boundary weight on the diagonal).
func (s *StencilOp) Diag() []float64 { return s.DiagRange(0, s.n) }

// DiagRange implements engine.Operator.
func (s *StencilOp) DiagRange(lo, hi int) []float64 {
	d := make([]float64, hi-lo)
	for i := range d {
		d[i] = s.diag
	}
	return d
}

// ChunkPlan returns the cached full-range chunk plan — the same nnz-balanced
// geometry the assembled matrix would plan.
func (s *StencilOp) ChunkPlan() *sparse.Chunks {
	if p := s.plan.Load(); p != nil {
		return p
	}
	ch := sparse.WorkChunks(s.rowPtr, 0, s.n)
	if s.plan.CompareAndSwap(nil, &ch) {
		return &ch
	}
	if p := s.plan.Load(); p != nil {
		return p
	}
	return &ch
}

// InvalidatePlan implements engine.Operator. The stencil structure is
// immutable, so this only drops the cached plan.
func (s *StencilOp) InvalidatePlan() { s.plan.Store(nil) }

// row7 applies one Star7 row with boundary handling, in the CSR kernel's
// exact accumulation order (ascending column, unrolled batch + remainder).
func (s *StencilOp) row7(x []float64, i, xi, yi, zi int) float64 {
	g := s.g
	nx, nxy := g.Nx, g.Nx*g.Ny
	var cols [7]int
	var vals [7]float64
	cnt := 0
	if zi > 0 {
		cols[cnt], vals[cnt] = i-nxy, -1
		cnt++
	}
	if yi > 0 {
		cols[cnt], vals[cnt] = i-nx, -1
		cnt++
	}
	if xi > 0 {
		cols[cnt], vals[cnt] = i-1, -1
		cnt++
	}
	cols[cnt], vals[cnt] = i, s.diag
	cnt++
	if xi < nx-1 {
		cols[cnt], vals[cnt] = i+1, -1
		cnt++
	}
	if yi < g.Ny-1 {
		cols[cnt], vals[cnt] = i+nx, -1
		cnt++
	}
	if zi < g.Nz-1 {
		cols[cnt], vals[cnt] = i+nxy, -1
		cnt++
	}
	return accumRow(&vals, &cols, cnt, x)
}

// row5 is row7's 2D counterpart.
func (s *StencilOp) row5(x []float64, i, xi, yi int) float64 {
	g := s.g
	nx := g.Nx
	var cols [7]int
	var vals [7]float64
	cnt := 0
	if yi > 0 {
		cols[cnt], vals[cnt] = i-nx, -1
		cnt++
	}
	if xi > 0 {
		cols[cnt], vals[cnt] = i-1, -1
		cnt++
	}
	cols[cnt], vals[cnt] = i, s.diag
	cnt++
	if xi < nx-1 {
		cols[cnt], vals[cnt] = i+1, -1
		cnt++
	}
	if yi < g.Ny-1 {
		cols[cnt], vals[cnt] = i+nx, -1
		cnt++
	}
	return accumRow(&vals, &cols, cnt, x)
}

// accumRow is the CSR inner loop verbatim: 4-way unrolled batches, remainder
// into s0, combined as (s0+s1)+(s2+s3).
func accumRow(vals *[7]float64, cols *[7]int, cnt int, x []float64) float64 {
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= cnt; k += 4 {
		s0 += vals[k] * x[cols[k]]
		s1 += vals[k+1] * x[cols[k+1]]
		s2 += vals[k+2] * x[cols[k+2]]
		s3 += vals[k+3] * x[cols[k+3]]
	}
	for ; k < cnt; k++ {
		s0 += vals[k] * x[cols[k]]
	}
	return (s0 + s1) + (s2 + s3)
}

// FusedRows applies rows [r0, r1) (sparse.RowKernel), writing y[i-yoff] =
// inv[i-yoff]·scale·(A·x)[i]; a nil inv skips its multiply, and v·1 is v to
// the bit, so the bits match the plain product exactly. The range is walked
// one grid line (fixed y and z) at a time: the points strictly inside an
// interior line go through the line kernel, the rest — the two ends of an
// interior line and every point of a boundary line — gather through the
// generic CSR-order accumulator. The box stencils take boxRows.
func (s *StencilOp) FusedRows(y, x []float64, r0, r1, yoff int, scale float64, inv []float64) {
	if s.r > 0 {
		s.boxRows(y, x, r0, r1, yoff, scale, inv)
		return
	}
	g := s.g
	nx, ny := g.Nx, g.Ny
	for i := r0; i < r1; {
		xi := i % nx
		t := i / nx
		yi, zi := t%ny, t/ny
		start := i - xi // the line's first point
		end := min(start+nx, r1)
		interior := yi > 0 && yi < ny-1
		if g.Stencil == Star7 {
			interior = interior && zi > 0 && zi < g.Nz-1
		}
		a, b := end, end // the interior run [a, b) of the segment
		if interior {
			a, b = max(i, start+1), min(end, start+nx-1)
			if a > b {
				a, b = end, end
			}
		}
		s.edge(y, x, i, a, yoff, yi, zi, scale, inv)
		if a < b {
			if g.Stencil == Star7 {
				line7(y, x, a, b, yoff, nx, nx*ny, s.diag, scale, inv)
			} else {
				line5(y, x, a, b, yoff, nx, s.diag, scale, inv)
			}
		}
		s.edge(y, x, b, end, yoff, yi, zi, scale, inv)
		i = end
	}
}

// edge applies rows [lo, hi) of one line (grid coordinates yi, zi) through
// the generic accumulator.
func (s *StencilOp) edge(y, x []float64, lo, hi, yoff, yi, zi int, scale float64, inv []float64) {
	for i := lo; i < hi; i++ {
		var v float64
		if s.g.Stencil == Star7 {
			v = s.row7(x, i, i%s.g.Nx, yi, zi)
		} else {
			v = s.row5(x, i, i%s.g.Nx, yi)
		}
		if scale != 1 {
			v *= scale
		}
		if inv != nil {
			v *= inv[i-yoff]
		}
		y[i-yoff] = v
	}
}

// line7 is the Star7 line kernel: rows [a, b) of one line, every one with
// all six neighbours, in the CSR order — columns ascend as i-nxy, i-nx, i-1,
// i (the diagonal), i+1, i+nx, i+nxy; the first four form the unrolled
// batch, the rest fold into s0. Each neighbour is a contiguous slice of x
// cut to the run's length, so the loop carries no per-access bounds check,
// and the write-back multiplies unconditionally: v·1 is v to the bit, so
// scale 1 needs no branch.
func line7(y, x []float64, a, b, yoff, nx, nxy int, diag, scale float64, inv []float64) {
	out := y[a-yoff : b-yoff]
	n := len(out)
	zm, ym, xm := x[a-nxy:][:n], x[a-nx:][:n], x[a-1:][:n]
	c, xp, yp, zp := x[a:][:n], x[a+1:][:n], x[a+nx:][:n], x[a+nxy:][:n]
	if inv == nil {
		for k := range out {
			var s0, s1, s2, s3 float64
			s0 += -1 * zm[k]
			s1 += -1 * ym[k]
			s2 += -1 * xm[k]
			s3 += diag * c[k]
			s0 += -1 * xp[k]
			s0 += -1 * yp[k]
			s0 += -1 * zp[k]
			out[k] = ((s0 + s1) + (s2 + s3)) * scale
		}
		return
	}
	iv := inv[a-yoff:][:n]
	for k := range out {
		var s0, s1, s2, s3 float64
		s0 += -1 * zm[k]
		s1 += -1 * ym[k]
		s2 += -1 * xm[k]
		s3 += diag * c[k]
		s0 += -1 * xp[k]
		s0 += -1 * yp[k]
		s0 += -1 * zp[k]
		out[k] = ((s0 + s1) + (s2 + s3)) * scale * iv[k]
	}
}

// line5 is line7's Star5 counterpart: i-nx, i-1, i (the diagonal), i+1 form
// the batch; i+nx folds into s0.
func line5(y, x []float64, a, b, yoff, nx int, diag, scale float64, inv []float64) {
	out := y[a-yoff : b-yoff]
	n := len(out)
	ym, xm, c := x[a-nx:][:n], x[a-1:][:n], x[a:][:n]
	xp, yp := x[a+1:][:n], x[a+nx:][:n]
	if inv == nil {
		for k := range out {
			var s0, s1, s2, s3 float64
			s0 += -1 * ym[k]
			s1 += -1 * xm[k]
			s2 += diag * c[k]
			s3 += -1 * xp[k]
			s0 += -1 * yp[k]
			out[k] = ((s0 + s1) + (s2 + s3)) * scale
		}
		return
	}
	iv := inv[a-yoff:][:n]
	for k := range out {
		var s0, s1, s2, s3 float64
		s0 += -1 * ym[k]
		s1 += -1 * xm[k]
		s2 += diag * c[k]
		s3 += -1 * xp[k]
		s0 += -1 * yp[k]
		out[k] = ((s0 + s1) + (s2 + s3)) * scale * iv[k]
	}
}

// mulVec is the dispatcher, mirroring the CSR one: serial for small ranges,
// the cached plan for the full range, binary-searched chunk bounds for
// partial (rank-local) ranges.
func (s *StencilOp) mulVec(y, x []float64, lo, hi, yoff int) {
	if len(x) < s.n {
		panic(fmt.Sprintf("grid: StencilOp MulVec x too short: %d < %d", len(x), s.n))
	}
	if lo >= hi {
		return
	}
	total := sparse.RowWork(s.rowPtr, lo, hi)
	nc := par.NumChunks(total)
	if nc <= 1 {
		s.FusedRows(y, x, lo, hi, yoff, 1, nil)
		return
	}
	if lo == 0 && hi == s.n {
		ch := s.ChunkPlan()
		n := len(ch.Bounds) - 1
		par.Default().ForChunks(n, func(c int) {
			s.FusedRows(y, x, ch.Bounds[c], ch.Bounds[c+1], yoff, 1, nil)
		})
		return
	}
	par.Default().ForChunks(nc, func(c int) {
		r0 := sparse.SearchRow(s.rowPtr, lo, hi, c*total/nc)
		r1 := sparse.SearchRow(s.rowPtr, lo, hi, (c+1)*total/nc)
		s.FusedRows(y, x, r0, r1, yoff, 1, nil)
	})
}

// MulVec implements engine.Operator.
func (s *StencilOp) MulVec(y, x []float64) { s.mulVec(y, x, 0, s.n, 0) }

// MulVecRange implements engine.Operator.
func (s *StencilOp) MulVecRange(y, x []float64, lo, hi int) { s.mulVec(y, x, lo, hi, 0) }

// MulVecRangeInto implements engine.Operator.
func (s *StencilOp) MulVecRangeInto(y, x []float64, lo, hi int) { s.mulVec(y, x, lo, hi, lo) }

// MulVecFused implements engine.FusedOperator with the same chunk geometry,
// scale semantics and ascending-order dot fold as the CSR fused kernel, so a
// fused solve through the stencil stays bit-identical to one through the
// assembled matrix.
func (s *StencilOp) MulVecFused(y, x []float64, lo, hi, yoff int, scale float64, ws [][]float64, dots []float64) {
	s.MulVecFusedDiag(y, x, lo, hi, yoff, scale, nil, ws, dots)
}

// MulVecFusedDiag implements engine.FusedOperator: MulVecFused with a
// diagonal preconditioner's row scale folded into the same pass, through the
// dispatcher the CSR kernel uses.
func (s *StencilOp) MulVecFusedDiag(y, x []float64, lo, hi, yoff int, scale float64, inv []float64, ws [][]float64, dots []float64) {
	if len(x) < s.n {
		panic(fmt.Sprintf("grid: StencilOp MulVecFused x too short: %d < %d", len(x), s.n))
	}
	sparse.FusedProduct(s.rowPtr, s, y, x, lo, hi, yoff, scale, inv, ws, dots)
}
