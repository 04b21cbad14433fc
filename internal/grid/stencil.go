package grid

import (
	"fmt"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/vec"
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
//
// The star stencils walk a row range one grid line at a time: interior
// lines through the line kernels line7/line5, and the line ends and
// boundary lines through term lists built once per (z, y) window (starShape)
// — the boundary lines' x-interior runs through the T-term line kernel
// lineT. The box stencils take stencil_box.go, and on amd64 its four-wide
// kernels box_amd64.s.
type StencilOp struct {
	g      Grid
	n      int
	r      int // box radius (1 Box27, 2 Box125); 0 for the star stencils
	diag   float64
	rowPtr []int       // synthetic prefix-nnz: chunk-plan parity with the CSR form
	shapes []boxShape  // the box stencils' line shapes
	star   []starShape // the star stencils' term lists, by (z, y) window

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
	} else {
		s.buildStar()
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

// starRow is the term list of one Star7/Star5 row shape: the offsets of its
// present neighbours from the row's point and their coefficients, in the
// CSR's ascending column order.
type starRow struct {
	n   int
	off [7]int
	c   [7]float64
}

// starShape holds the term lists shared by every grid line with the same y
// and z window: an x-interior point, the x = 0 point (no i−1), the x = nx−1
// point (no i+1), and the one point of an nx = 1 line.
type starShape struct {
	in, lo, hi, one starRow
}

// axisWindow is the window of position p on a length-n axis: 0 interior,
// bit 0 set at the low end (no p−1), bit 1 at the high end (no p+1); an
// axis of length 1 is both.
func axisWindow(n, p int) int {
	w := 0
	if p == 0 {
		w |= 1
	}
	if p == n-1 {
		w |= 2
	}
	return w
}

// buildStar fills s.star with the term lists of every (z window, y window).
// A 2D grid's z window is always "both", so it gets no z terms.
func (s *StencilOp) buildStar() {
	g := s.g
	nx, nxy := g.Nx, g.Nx*g.Ny
	s.star = make([]starShape, 16)
	for zw := range 4 {
		for yw := range 4 {
			sh := &s.star[zw*4+yw]
			for xw, r := range []*starRow{&sh.in, &sh.lo, &sh.hi, &sh.one} {
				// Each term is present unless its axis window lacks that side.
				for _, t := range [7]struct {
					w, side, off int
					c            float64
				}{{zw, 1, -nxy, -1}, {yw, 1, -nx, -1}, {xw, 1, -1, -1}, {0, 1, 0, s.diag},
					{xw, 2, 1, -1}, {yw, 2, nx, -1}, {zw, 2, nxy, -1}} {
					if t.w&t.side == 0 {
						r.off[r.n], r.c[r.n] = t.off, t.c
						r.n++
					}
				}
			}
		}
	}
}

// FusedRows applies rows [r0, r1) (sparse.RowKernel), writing y[i-yoff] =
// inv[i-yoff]·scale·(A·x)[i]; a nil inv skips its multiply, and v·1 is v to
// the bit, so the bits match the plain product exactly. The range is walked
// one grid line (fixed y and z) at a time, in three parts: the x = 0 point
// through its term list, the x-interior run through a line kernel — line7 or
// line5 on an interior line, lineT on a boundary line — and the x = nx−1
// point through its list. A run cut mid-line starts or stops inside the
// x-interior part. The box stencils take boxRows.
func (s *StencilOp) FusedRows(y, x []float64, r0, r1, yoff int, scale float64, inv []float64) {
	if s.r > 0 {
		s.boxRows(y, x, r0, r1, yoff, scale, inv)
		return
	}
	g := s.g
	nx, ny := g.Nx, g.Ny
	l := r0 / nx // the line, at (y, z) = (yi, zi)
	yi, zi := l%ny, l/ny
	for i := r0; i < r1; l, yi = l+1, yi+1 {
		if yi == ny {
			yi, zi = 0, zi+1
		}
		start := l * nx // the line's first point
		end := min(start+nx, r1)
		sh := &s.star[axisWindow(g.Nz, zi)*4+axisWindow(ny, yi)]
		if nx == 1 {
			sh.one.point(y, x, i, yoff, scale, inv)
			i++
			continue
		}
		if i == start {
			sh.lo.point(y, x, i, yoff, scale, inv)
			i++
		}
		if b := min(end, start+nx-1); i < b {
			switch {
			case sh.in.n == 7:
				line7(y, x, i, b, yoff, nx, nx*ny, s.diag, scale, inv)
			case sh.in.n == 5 && g.Stencil == Star5:
				line5(y, x, i, b, yoff, nx, s.diag, scale, inv)
			default:
				lineT(y, x, i, b, yoff, &sh.in, scale, inv)
			}
			i = b
		}
		if i < end {
			sh.hi.point(y, x, i, yoff, scale, inv)
			i++
		}
	}
}

// point applies row i through the term list, in the CSR kernel's order:
// term t into s_{t mod 4} while t < 4⌊T/4⌋, the rest into s0, combined as
// (s0+s1)+(s2+s3).
func (r *starRow) point(y, x []float64, i, yoff int, scale float64, inv []float64) {
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= r.n; k += 4 {
		s0 += r.c[k] * x[i+r.off[k]]
		s1 += r.c[k+1] * x[i+r.off[k+1]]
		s2 += r.c[k+2] * x[i+r.off[k+2]]
		s3 += r.c[k+3] * x[i+r.off[k+3]]
	}
	for ; k < r.n; k++ {
		s0 += r.c[k] * x[i+r.off[k]]
	}
	v := ((s0 + s1) + (s2 + s3)) * scale
	if inv != nil {
		v *= inv[i-yoff]
	}
	y[i-yoff] = v
}

// lineT is the line kernel of a boundary line's x-interior run [a, b): the
// T = r.n terms of its rows (3 ≤ T ≤ 6) in the CSR order, one loop per T,
// each term a contiguous slice of x cut to the run's length. The inv
// multiply is a second pass over the run's output: (v·scale)·inv either way,
// so the bits are those of the one-pass form.
func lineT(y, x []float64, a, b, yoff int, r *starRow, scale float64, inv []float64) {
	out := y[a-yoff : b-yoff]
	n := len(out)
	o := &r.off
	c0, c1, c2, c3, c4, c5 := r.c[0], r.c[1], r.c[2], r.c[3], r.c[4], r.c[5]
	t0, t1, t2 := x[a+o[0]:][:n], x[a+o[1]:][:n], x[a+o[2]:][:n]
	switch r.n {
	case 3:
		for k := range out {
			var s0, s1, s2, s3 float64
			s0 += c0 * t0[k]
			s0 += c1 * t1[k]
			s0 += c2 * t2[k]
			out[k] = ((s0 + s1) + (s2 + s3)) * scale
		}
	case 4:
		t3 := x[a+o[3]:][:n]
		for k := range out {
			var s0, s1, s2, s3 float64
			s0 += c0 * t0[k]
			s1 += c1 * t1[k]
			s2 += c2 * t2[k]
			s3 += c3 * t3[k]
			out[k] = ((s0 + s1) + (s2 + s3)) * scale
		}
	case 5:
		t3, t4 := x[a+o[3]:][:n], x[a+o[4]:][:n]
		for k := range out {
			var s0, s1, s2, s3 float64
			s0 += c0 * t0[k]
			s1 += c1 * t1[k]
			s2 += c2 * t2[k]
			s3 += c3 * t3[k]
			s0 += c4 * t4[k]
			out[k] = ((s0 + s1) + (s2 + s3)) * scale
		}
	case 6:
		t3, t4, t5 := x[a+o[3]:][:n], x[a+o[4]:][:n], x[a+o[5]:][:n]
		for k := range out {
			var s0, s1, s2, s3 float64
			s0 += c0 * t0[k]
			s1 += c1 * t1[k]
			s2 += c2 * t2[k]
			s3 += c3 * t3[k]
			s0 += c4 * t4[k]
			s0 += c5 * t5[k]
			out[k] = ((s0 + s1) + (s2 + s3)) * scale
		}
	default:
		panic(fmt.Sprintf("grid: no line kernel for %d terms", r.n))
	}
	if inv != nil {
		iv := inv[a-yoff:][:n]
		for k := range out {
			out[k] *= iv[k]
		}
	}
}

// line7 is the Star7 line kernel: rows [a, b) of one line, every one with
// all six neighbours, in the CSR order — columns ascend as i-nxy, i-nx, i-1,
// i (the diagonal), i+1, i+nx, i+nxy; the first four form the unrolled
// batch, the rest fold into s0. Each neighbour is a contiguous slice of x
// cut to the run's length, so the loop carries no per-access bounds check,
// and the write-back multiplies unconditionally: v·1 is v to the bit, so
// scale 1 needs no branch. With AVX2 the run's prefix whose length is a
// multiple of 4 goes through line7AVX (line_amd64.s), the same per-row
// expression four rows at a time; the loop below runs the rest.
func line7(y, x []float64, a, b, yoff, nx, nxy int, diag, scale float64, inv []float64) {
	out := y[a-yoff : b-yoff]
	n := len(out)
	zm, ym, xm := x[a-nxy:][:n], x[a-nx:][:n], x[a-1:][:n]
	c, xp, yp, zp := x[a:][:n], x[a+1:][:n], x[a+nx:][:n], x[a+nxy:][:n]
	k := 0
	if m := n &^ 3; useAVX2 && m > 0 {
		line7AVX(&out[0], &zm[0], &ym[0], &xm[0], &c[0], &xp[0], &yp[0], &zp[0], rowScale(inv, a-yoff, n), diag, scale, m)
		k = m
	}
	if inv == nil {
		for ; k < n; k++ {
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
	for ; k < n; k++ {
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

// useAVX2 selects the four-wide kernels: the line kernels (line_amd64.s)
// for each run's prefix whose length is a multiple of 4, the Go loops
// running the rest, and the box kernels (box_amd64.s). It is vec's CPU
// probe, fixed at start-up; tests clear it to run the Go loops alone as the
// bit reference.
var useAVX2 = vec.AVX2()

// rowScale is the four-wide kernels' row-scale operand: &inv[lo] checked
// for n rows, or nil without one.
func rowScale(inv []float64, lo, n int) *float64 {
	if inv == nil {
		return nil
	}
	return &inv[lo:][:n][0]
}

// line5 is line7's Star5 counterpart: i-nx, i-1, i (the diagonal), i+1 form
// the batch; i+nx folds into s0. line5AVX runs the prefix, as for line7.
func line5(y, x []float64, a, b, yoff, nx int, diag, scale float64, inv []float64) {
	out := y[a-yoff : b-yoff]
	n := len(out)
	ym, xm, c := x[a-nx:][:n], x[a-1:][:n], x[a:][:n]
	xp, yp := x[a+1:][:n], x[a+nx:][:n]
	k := 0
	if m := n &^ 3; useAVX2 && m > 0 {
		line5AVX(&out[0], &ym[0], &xm[0], &c[0], &xp[0], &yp[0], rowScale(inv, a-yoff, n), diag, scale, m)
		k = m
	}
	if inv == nil {
		for ; k < n; k++ {
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
	for ; k < n; k++ {
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
