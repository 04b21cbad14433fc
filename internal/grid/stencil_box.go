package grid

// The box path of StencilOp: Box27 and Box125 (radius r = 1, 2) on grids of
// any size, bit-identical to the assembled rows of Grid.Laplacian.
//
// A box row's terms, in ascending column, are its present (dz, dy) row
// slices in column order; each slice is a contiguous run of x of width w,
// 2r+1 clipped at the x-boundaries, and every slice of a row has the same w.
// The CSR kernel sends term t of a T-term row to partial sum t mod 4 while
// t < 4⌊T/4⌋, the last T mod 4 terms to s0, and returns (s0+s1)+(s2+s3).
// A group of four slices holds 4w terms, a whole number of batches, so the
// kernel walks a row four slices at a time: each group is one point-inner
// pass over a run of points that share w, the four partial sums of every
// point parked in scratch between groups. Only the last group of a row can
// hold the T mod 4 tail. Off-centre coefficients are −1, and s −= x is
// s += (−1)·x to the bit, and c·x with c = −1 is exactly −x. So a full
// width-5 group is sub5, twenty subtractions with the centre's 124 riding a
// middle-column coefficient pass; every other term — a row's last, partial
// group and the clipped x-edge rows — goes through a term table built once
// per line window and x position.

// boxBlock is the number of points whose partial sums one scratch block
// holds: 2 KiB of stack, in L1 across a run's groups.
const boxBlock = 64

// boxShape is the slice list shared by every grid line with the same
// in-range (dz, dy) window, plus one term table per x window.
type boxShape struct {
	off    []int // slice offsets dz·Nx·Ny + dy·Nx, in column order
	centre int   // the index of the slice (0, 0)
	cc     [][4]float64
	tabs   []boxTable
}

// boxTable lists the terms of a row that do not go through sub5 — those of
// slices from on — as offsets from the row's point, four per batch. Every
// coefficient is −1 but in the batch cb (the centre's, −1 if none), whose
// coefficients are cc; the tail holds the last len mod 4 terms, which all go
// to s0, with their coefficients.
type boxTable struct {
	from  int
	batch [][4]int
	cb    int
	cc    [4]float64
	toff  [4]int
	tc    [4]float64
	ntail int
}

// window indexes the in-range window of offsets −r…r around position p of a
// length-n axis by its reach to the left and to the right, one of (r+1)².
func window(n, p, r int) int { return min(p, r)*(r+1) + min(r, n-1-p) }

// shape returns the shape of the grid line at (y, z) = (yi, zi).
func (s *StencilOp) shape(yi, zi int) *boxShape {
	k := (s.r + 1) * (s.r + 1)
	return &s.shapes[window(s.g.Nz, zi, s.r)*k+window(s.g.Ny, yi, s.r)]
}

// buildShapes fills s.shapes with the slice lists and term tables of every
// line window and x window g has.
func (s *StencilOp) buildShapes() {
	g, r := s.g, s.r
	k := (r + 1) * (r + 1)
	s.shapes = make([]boxShape, k*k)
	for zi := 0; zi < g.Nz; zi++ {
		for yi := 0; yi < g.Ny; yi++ {
			sh := s.shape(yi, zi)
			if sh.tabs != nil {
				continue
			}
			for dz := max(-r, -zi); dz <= min(r, g.Nz-1-zi); dz++ {
				for dy := max(-r, -yi); dy <= min(r, g.Ny-1-yi); dy++ {
					if dz == 0 && dy == 0 {
						sh.centre = len(sh.off)
					}
					sh.off = append(sh.off, dz*g.Nx*g.Ny+dy*g.Nx)
				}
			}
			// sub5's middle-column coefficients, one set per group of four.
			sh.cc = make([][4]float64, len(sh.off)/4)
			for j := range sh.cc {
				sh.cc[j] = [4]float64{-1, -1, -1, -1}
				if c := sh.centre - 4*j; c >= 0 && c < 4 {
					sh.cc[j][c] = s.diag
				}
			}
			sh.tabs = make([]boxTable, k)
			for xi := 0; xi < g.Nx; xi++ {
				lx := min(xi, r)
				w := lx + min(r, g.Nx-1-xi) + 1
				t := &sh.tabs[window(g.Nx, xi, r)]
				if t.batch != nil {
					continue
				}
				if w == 5 {
					t.from = len(sh.off) &^ 3
				}
				n := (len(sh.off) - t.from) * w
				t.batch, t.ntail, t.cb, t.cc = make([][4]int, n/4), n%4, -1, [4]float64{-1, -1, -1, -1}
				for u := range n {
					j, d := t.from+u/w, u%w
					o, c := sh.off[j]-lx+d, -1.0
					if j == sh.centre && d == lx {
						c = s.diag
					}
					if u >= n&^3 {
						t.toff[u%4], t.tc[u%4] = o, c
						continue
					}
					t.batch[u/4][u%4] = o
					if c != -1 {
						t.cb, t.cc[u%4] = u/4, c
					}
				}
			}
		}
	}
}

// boxRows is FusedRows for the box stencils: rows [r0, r1) walked one grid
// line at a time, the x-interior points of a line (width 2r+1) as one run
// and each clipped x-edge point on its own.
func (s *StencilOp) boxRows(y, x []float64, r0, r1, yoff int, scale float64, inv []float64) {
	g, r := s.g, s.r
	nx := g.Nx
	var acc [boxBlock][4]float64
	for i := r0; i < r1; {
		start := i - i%nx // the line's first point
		end := min(start+nx, r1)
		l := i / nx
		sh := s.shape(l%g.Ny, l/g.Ny)
		for i < end {
			xi := i - start
			b := i + 1 // the run [i, b)
			if xi >= r && xi < nx-r {
				b = min(end, start+nx-r)
			}
			tab := &sh.tabs[window(nx, xi, r)]
			for a := i; a < b; a += boxBlock {
				run := acc[:min(b-a, boxBlock)]
				clear(run)
				for j := 0; j < tab.from; j += 4 {
					sub5(run, x, a-r, sh.off[j:j+4], &sh.cc[j/4])
				}
				var iv []float64
				if inv != nil {
					iv = inv[a-yoff:][:len(run)]
				}
				tab.pass(run, x, a, y[a-yoff:][:len(run)], iv, scale)
			}
			i = b
		}
	}
}

// pass adds the table's terms to the partial sums of the points i = a,
// a+1, … — the batches round-robin (the table starts on a batch boundary),
// the tail into s0 — and writes out[k] = ((s0+s1)+(s2+s3))·scale, times
// inv[k] for a non-nil inv.
func (t *boxTable) pass(acc [][4]float64, x []float64, a int, out, inv []float64, scale float64) {
	out = out[:len(acc)]
	for k := range acc {
		p := &acc[k]
		s0, s1, s2, s3 := p[0], p[1], p[2], p[3]
		i := a + k
		for b := range t.batch {
			o := &t.batch[b]
			if b == t.cb {
				s0 += t.cc[0] * x[i+o[0]]
				s1 += t.cc[1] * x[i+o[1]]
				s2 += t.cc[2] * x[i+o[2]]
				s3 += t.cc[3] * x[i+o[3]]
				continue
			}
			s0 -= x[i+o[0]]
			s1 -= x[i+o[1]]
			s2 -= x[i+o[2]]
			s3 -= x[i+o[3]]
		}
		for j := range t.ntail {
			s0 += t.tc[j] * x[i+t.toff[j]]
		}
		v := ((s0 + s1) + (s2 + s3)) * scale
		if inv != nil {
			v *= inv[k]
		}
		out[k] = v
	}
}

// sub5 is one full Box125 group at the interior width: four width-5 slices,
// term 5j+d of slice j into partial (j+d) mod 4. Every coefficient is −1
// (s −= v) but the middle column's, cc[j], which carries the centre. a is
// the first point's slice start and off the four slices' offsets.
func sub5(acc [][4]float64, x []float64, a int, off []int, cc *[4]float64) {
	c0, c1, c2, c3 := cc[0], cc[1], cc[2], cc[3]
	m := len(acc) + 4
	x0, x1, x2, x3 := x[a+off[0]:][:m:m], x[a+off[1]:][:m:m], x[a+off[2]:][:m:m], x[a+off[3]:][:m:m]
	for k := range acc {
		q0, q1, q2, q3 := x0[k:k+5], x1[k:k+5], x2[k:k+5], x3[k:k+5]
		p := &acc[k]
		s0, s1, s2, s3 := p[0], p[1], p[2], p[3]
		s0 -= q0[0]
		s1 -= q0[1]
		s2 += c0 * q0[2]
		s3 -= q0[3]
		s0 -= q0[4]
		s1 -= q1[0]
		s2 -= q1[1]
		s3 += c1 * q1[2]
		s0 -= q1[3]
		s1 -= q1[4]
		s2 -= q2[0]
		s3 -= q2[1]
		s0 += c2 * q2[2]
		s1 -= q2[3]
		s2 -= q2[4]
		s3 -= q3[0]
		s0 -= q3[1]
		s1 += c3 * q3[2]
		s2 -= q3[3]
		s3 -= q3[4]
		p[0], p[1], p[2], p[3] = s0, s1, s2, s3
	}
}
