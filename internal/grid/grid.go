// Package grid generates the structured-grid Poisson operators used in the
// paper's evaluation: the 125-point stencil (box of radius 2 in 3D) for the
// strong scaling, s-sensitivity, preconditioner and accuracy experiments, plus
// the common 7-point and 27-point 3D stencils and 5/9-point 2D stencils for
// examples and tests.
//
// All operators are symmetric positive definite M-matrices built as graph
// Laplacians of the stencil neighborhood with Dirichlet boundary conditions:
// a_ii equals the full stencil neighbor count (so rows touching the boundary
// remain strictly diagonally dominant) and a_ij = -w_ij for interior
// neighbors.
package grid

import (
	"fmt"
	"slices"

	"repro/internal/sparse"
)

// Stencil identifies a discrete Laplacian stencil shape.
type Stencil int

const (
	// Star7 is the classic 7-point 3D stencil (faces only).
	Star7 Stencil = iota
	// Box27 is the 27-point 3D stencil (radius-1 box).
	Box27
	// Box125 is the 125-point 3D stencil (radius-2 box) used throughout the
	// paper's evaluation section.
	Box125
	// Star5 is the 5-point 2D stencil.
	Star5
	// Box9 is the 9-point 2D stencil.
	Box9
)

// String implements fmt.Stringer.
func (s Stencil) String() string {
	switch s {
	case Star7:
		return "7-pt"
	case Box27:
		return "27-pt"
	case Box125:
		return "125-pt"
	case Star5:
		return "5-pt"
	case Box9:
		return "9-pt"
	}
	return fmt.Sprintf("Stencil(%d)", int(s))
}

// Points returns the number of points in the stencil, including the center.
func (s Stencil) Points() int {
	switch s {
	case Star7:
		return 7
	case Box27:
		return 27
	case Box125:
		return 125
	case Star5:
		return 5
	case Box9:
		return 9
	}
	panic("grid: unknown stencil")
}

// Is3D reports whether the stencil lives on a 3D grid.
func (s Stencil) Is3D() bool { return s == Star7 || s == Box27 || s == Box125 }

// offset is a relative stencil position.
type offset struct{ dx, dy, dz int }

// offsets returns the neighbor offsets of the stencil, excluding the center,
// in column order: ascending (dz, dy, dx). Every in-range neighbor of a grid
// point has the linear index Index(x+dx, y+dy, z+dz), which grows with
// (dz, dy, dx) lexicographically, so a row visited in this order is already
// sorted. The stencils are symmetric, so the center belongs at the midpoint.
func (s Stencil) offsets() []offset {
	var out []offset
	switch s {
	case Star7:
		out = []offset{{0, 0, -1}, {0, -1, 0}, {-1, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	case Star5:
		out = []offset{{0, -1, 0}, {-1, 0, 0}, {1, 0, 0}, {0, 1, 0}}
	case Box27, Box125:
		r := 1
		if s == Box125 {
			r = 2
		}
		for dz := -r; dz <= r; dz++ {
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					if dx == 0 && dy == 0 && dz == 0 {
						continue
					}
					out = append(out, offset{dx, dy, dz})
				}
			}
		}
	case Box9:
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				out = append(out, offset{dx, dy, 0})
			}
		}
	default:
		panic("grid: unknown stencil")
	}
	return out
}

// Grid describes a regular grid with a stencil. For 2D stencils Nz must be 1.
type Grid struct {
	Nx, Ny, Nz int
	Stencil    Stencil
}

// NewCube returns an n×n×n grid with the given 3D stencil.
func NewCube(n int, s Stencil) Grid {
	if !s.Is3D() {
		panic("grid: NewCube needs a 3D stencil")
	}
	return Grid{Nx: n, Ny: n, Nz: n, Stencil: s}
}

// NewSquare returns an n×n 2D grid with the given 2D stencil.
func NewSquare(n int, s Stencil) Grid {
	if s.Is3D() {
		panic("grid: NewSquare needs a 2D stencil")
	}
	return Grid{Nx: n, Ny: n, Nz: 1, Stencil: s}
}

// N returns the number of unknowns.
func (g Grid) N() int { return g.Nx * g.Ny * g.Nz }

// Index returns the linear index of grid point (x, y, z).
func (g Grid) Index(x, y, z int) int { return (z*g.Ny+y)*g.Nx + x }

// Coords inverts Index.
func (g Grid) Coords(i int) (x, y, z int) {
	x = i % g.Nx
	y = (i / g.Nx) % g.Ny
	z = i / (g.Nx * g.Ny)
	return
}

// Laplacian assembles the SPD stencil operator as CSR, row by row in O(nnz).
// The stored-entry count has a closed form — a stencil point (dx, dy, dz)
// stays in range at (Nx-|dx|)·(Ny-|dy|)·(Nz-|dz|) grid points — so Col and Val
// are allocated once at their exact size, and walking the stencil in column
// order (offsets, with the center at its midpoint) writes each row already
// sorted.
func (g Grid) Laplacian() *sparse.CSR {
	offs := g.Stencil.offsets()
	diag := float64(len(offs))
	center := len(offs) / 2
	pts := slices.Insert(offs, center, offset{})
	n := g.N()
	sparse.CheckDims(n, n)
	nnz := 0
	for _, o := range pts {
		nnz += inRange(g.Nx, o.dx) * inRange(g.Ny, o.dy) * inRange(g.Nz, o.dz)
	}
	a := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1),
		Col: make([]int32, nnz), Val: make([]float64, nnz)}
	p := 0
	for z := 0; z < g.Nz; z++ {
		for y := 0; y < g.Ny; y++ {
			for x := 0; x < g.Nx; x++ {
				for k, o := range pts {
					nx, ny, nz := x+o.dx, y+o.dy, z+o.dz
					if nx < 0 || nx >= g.Nx || ny < 0 || ny >= g.Ny || nz < 0 || nz >= g.Nz {
						continue // Dirichlet: neighbor outside keeps weight on diagonal
					}
					a.Col[p], a.Val[p] = int32(g.Index(nx, ny, nz)), -1
					if k == center {
						a.Val[p] = diag
					}
					p++
				}
				a.RowPtr[g.Index(x, y, z)+1] = p
			}
		}
	}
	return a
}

// inRange counts the points of a length-n axis whose neighbor at offset d is
// also on the axis.
func inRange(n, d int) int { return max(n-max(d, -d), 0) }

// Coarsen returns the grid with every dimension halved (for geometric
// multigrid). Dimensions are rounded up so a 2D grid stays 2D.
func (g Grid) Coarsen() Grid {
	c := Grid{Nx: (g.Nx + 1) / 2, Ny: (g.Ny + 1) / 2, Nz: (g.Nz + 1) / 2, Stencil: g.Stencil}
	if g.Nz == 1 {
		c.Nz = 1
	}
	return c
}

// Prolongation builds the linear interpolation operator from the coarse grid
// (g.Coarsen()) to g. Each fine point interpolates from the nearest coarse
// points with weights from per-dimension linear interpolation; the operator's
// transpose (scaled) serves as restriction.
func (g Grid) Prolongation() *sparse.CSR {
	c := g.Coarsen()
	b := sparse.NewBuilder(g.N(), c.N())

	// Per-dimension interpolation stencil: fine index f maps to coarse
	// indices f/2 (even) or {(f-1)/2, (f+1)/2} with weight ½ each (odd).
	type w1 struct {
		idx    int
		weight float64
	}
	dimWeights := func(f, nFine, nCoarse int) []w1 {
		if f%2 == 0 {
			return []w1{{f / 2, 1}}
		}
		lo, hi := (f-1)/2, (f+1)/2
		if hi >= nCoarse {
			return []w1{{lo, 1}}
		}
		return []w1{{lo, 0.5}, {hi, 0.5}}
	}

	for z := 0; z < g.Nz; z++ {
		wz := []w1{{0, 1}}
		if g.Nz > 1 {
			wz = dimWeights(z, g.Nz, c.Nz)
		}
		for y := 0; y < g.Ny; y++ {
			wy := dimWeights(y, g.Ny, c.Ny)
			for x := 0; x < g.Nx; x++ {
				wx := dimWeights(x, g.Nx, c.Nx)
				fi := g.Index(x, y, z)
				for _, az := range wz {
					for _, ay := range wy {
						for _, ax := range wx {
							ci := c.Index(ax.idx, ay.idx, az.idx)
							b.Add(fi, ci, ax.weight*ay.weight*az.weight)
						}
					}
				}
			}
		}
	}
	return b.Build()
}

// OnesRHS returns b = A·1, so the exact solution of Ax=b is the ones vector —
// the right-hand-side construction the paper uses in §VI-A.
func OnesRHS(a *sparse.CSR) []float64 {
	ones := make([]float64, a.Cols)
	for i := range ones {
		ones[i] = 1
	}
	b := make([]float64, a.Rows)
	a.MulVec(b, ones)
	return b
}
