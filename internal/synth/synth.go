// Package synth generates stand-ins for the SuiteSparse matrices used in the
// paper's evaluation (ecology2, thermal2, Serena). The real collection is not
// available offline, so each generator reproduces the properties the
// experiments depend on: the row count N, the nonzeros-per-row density that
// drives SPMV cost and overlap capacity, symmetric positive definiteness, and
// heterogeneous coefficients that reproduce the conditioning (and the
// stagnation of s-step variants at tight tolerances) qualitatively.
//
// All generators are deterministic: edge weights are keyed by a SplitMix64
// hash of the edge endpoints, so repeated runs and both assembly passes see
// identical values.
package synth

import (
	"math"

	"repro/internal/sparse"
)

// splitmix64 is the SplitMix64 mixing function; a tiny, high-quality,
// stateless hash used to derive deterministic per-edge weights.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashUnit maps (seed, a, b) to a uniform float64 in (0, 1).
func hashUnit(seed, a, b uint64) float64 {
	h := splitmix64(seed ^ splitmix64(a^splitmix64(b)))
	return (float64(h>>11) + 0.5) / (1 << 53)
}

// lognormalWeight returns exp(sigma·z) for z ~ N(0,1) derived from the edge
// key, giving a positive heterogeneous conductance with contrast set by sigma.
func lognormalWeight(seed uint64, i, j int, sigma float64) float64 {
	if j < i {
		i, j = j, i // symmetric key
	}
	u1 := hashUnit(seed, uint64(i), uint64(j))
	u2 := hashUnit(seed+1, uint64(i), uint64(j))
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2) // Box–Muller
	return math.Exp(sigma * z)
}

// EdgeEmitter receives graph edges and Dirichlet diagonal boosts during
// Laplacian assembly. Edge(i, j, w) contributes +w to both diagonals and -w
// at (i,j) and (j,i); Diag(i, w) adds w to a_ii only.
type EdgeEmitter interface {
	Edge(i, j int, w float64)
	Diag(i int, w float64)
}

type countingEmitter struct {
	nnz  []int // off-diagonal count per row (diag slot added separately)
	hasD []bool
}

func (c *countingEmitter) Edge(i, j int, w float64) {
	c.nnz[i]++
	c.nnz[j]++
	c.hasD[i] = true
	c.hasD[j] = true
}
func (c *countingEmitter) Diag(i int, w float64) { c.hasD[i] = true }

type fillingEmitter struct {
	a    *sparse.CSR
	next []int     // next free slot per row
	diag []float64 // accumulated diagonal
}

func (f *fillingEmitter) Edge(i, j int, w float64) {
	f.place(i, j, -w)
	f.place(j, i, -w)
	f.diag[i] += w
	f.diag[j] += w
}
func (f *fillingEmitter) Diag(i int, w float64) { f.diag[i] += w }

func (f *fillingEmitter) place(row, col int, v float64) {
	p := f.next[row]
	f.a.Col[p] = int32(col)
	f.a.Val[p] = v
	f.next[row] = p + 1
}

// AssembleLaplacian builds an SPD graph Laplacian in CSR form from a
// generator that emits every edge exactly once (i < j recommended but not
// required) plus any Dirichlet diagonal boosts. The generator is invoked
// twice — a counting pass and a filling pass — so it must be deterministic.
// Every row receives a diagonal entry.
func AssembleLaplacian(n int, generate func(EdgeEmitter)) *sparse.CSR {
	sparse.CheckDims(n, n)
	cnt := &countingEmitter{nnz: make([]int, n), hasD: make([]bool, n)}
	generate(cnt)

	a := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		a.RowPtr[i+1] = a.RowPtr[i] + cnt.nnz[i] + 1 // +1 for the diagonal
	}
	nnz := a.RowPtr[n]
	a.Col = make([]int32, nnz)
	a.Val = make([]float64, nnz)

	fill := &fillingEmitter{a: a, next: make([]int, n), diag: make([]float64, n)}
	for i := 0; i < n; i++ {
		fill.next[i] = a.RowPtr[i] + 1 // slot 0 of each row reserved for diag
	}
	generate(fill)

	// Write diagonals into the reserved slot, then sort each row by column.
	for i := 0; i < n; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		d := fill.diag[i]
		if d == 0 {
			d = 1 // isolated vertex: keep the matrix nonsingular
		}
		a.Col[lo] = int32(i)
		a.Val[lo] = d
		sparse.SortRow(a.Col[lo:hi], a.Val[lo:hi])
	}
	return a
}

// Matrix bundles a generated matrix with the identity of what it stands for.
type Matrix struct {
	Name string
	A    *sparse.CSR
	// PaperN and PaperNNZ are the dimensions of the real SuiteSparse matrix
	// (Table II of the paper) this generator imitates.
	PaperN, PaperNNZ int
}

// Ecology2 imitates the ecology2 matrix: a 2D 5-point grid Laplacian
// (landscape conductance model), N = 999999 = 999×1001, nnz ≈ 5.0M, with
// strongly heterogeneous lognormal conductances. scale shrinks both grid
// dimensions (scale=1 is full size).
func Ecology2(scale int) Matrix {
	if scale < 1 {
		scale = 1
	}
	nx, ny := 1001/scale, 999/scale
	return ecology2Dims(nx, ny)
}

func ecology2Dims(nx, ny int) Matrix {
	const seed = 0xec010927
	const sigma = 1.0 // heterogeneity contrast: drives the rtol-1e-5 s-step stagnation
	n := nx * ny
	idx := func(x, y int) int { return y*nx + x }
	a := AssembleLaplacian(n, func(em EdgeEmitter) {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := idx(x, y)
				if x+1 < nx {
					em.Edge(i, idx(x+1, y), lognormalWeight(seed, i, idx(x+1, y), sigma))
				}
				if y+1 < ny {
					em.Edge(i, idx(x, y+1), lognormalWeight(seed, i, idx(x, y+1), sigma))
				}
				// Dirichlet boundary keeps the operator nonsingular, as in
				// the grounded conductance problem ecology2 comes from.
				if x == 0 || x == nx-1 || y == 0 || y == ny-1 {
					em.Diag(i, lognormalWeight(seed+7, i, i, sigma))
				}
			}
		}
	})
	return Matrix{Name: "ecology2", A: a, PaperN: 999999, PaperNNZ: 4995991}
}

// Thermal2 imitates the thermal2 matrix: an unstructured FEM steady-state
// thermal problem, N = 1228045, nnz ≈ 8.58M (≈7 per row). The stand-in is a
// 2D grid Laplacian with one extra pseudo-random short-range edge per node
// (lifting the mean row density from 5 to ≈7) and moderate heterogeneity.
func Thermal2(scale int) Matrix {
	if scale < 1 {
		scale = 1
	}
	nx, ny := 1109/scale, 1108/scale
	return thermal2Dims(nx, ny)
}

func thermal2Dims(nx, ny int) Matrix {
	const seed = 0x00073e2a
	const sigma = 1.0
	n := nx * ny
	idx := func(x, y int) int { return y*nx + x }
	a := AssembleLaplacian(n, func(em EdgeEmitter) {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := idx(x, y)
				if x+1 < nx {
					em.Edge(i, idx(x+1, y), lognormalWeight(seed, i, idx(x+1, y), sigma))
				}
				if y+1 < ny {
					em.Edge(i, idx(x, y+1), lognormalWeight(seed, i, idx(x, y+1), sigma))
				}
				// One extra "mesh irregularity" edge per node: connect to a
				// pseudo-random node within a small window ahead, mimicking
				// unstructured triangulation fill.
				if span := n - 1 - i; span > 1 {
					w := span
					if w > 2*nx {
						w = 2 * nx
					}
					j := i + 1 + int(hashUnit(seed+3, uint64(i), 0)*float64(w))
					if j > i && j < n {
						em.Edge(i, j, lognormalWeight(seed, i, j, sigma))
					}
				}
				if x == 0 || x == nx-1 || y == 0 || y == ny-1 {
					em.Diag(i, 1)
				}
			}
		}
	})
	return Matrix{Name: "thermal2", A: a, PaperN: 1228045, PaperNNZ: 8580313}
}

// serenaOffsets is the 3D neighbor set of the Serena stand-in: the radius-1
// box (26), the radius-2 axis points (6), and twelve (±2,±1,0)-class planar
// offsets — 44 neighbors, so interior rows hold 45 entries, close to
// Serena's 46 nonzeros per row.
var serenaOffsets = func() [][3]int {
	var offs [][3]int
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx != 0 || dy != 0 || dz != 0 {
					offs = append(offs, [3]int{dx, dy, dz})
				}
			}
		}
	}
	offs = append(offs, [3]int{2, 0, 0}, [3]int{-2, 0, 0}, [3]int{0, 2, 0},
		[3]int{0, -2, 0}, [3]int{0, 0, 2}, [3]int{0, 0, -2})
	for _, pair := range [][2]int{{2, 1}, {1, 2}} {
		a, b := pair[0], pair[1]
		offs = append(offs,
			[3]int{a, b, 0}, [3]int{-a, b, 0}, [3]int{a, -b, 0}, [3]int{-a, -b, 0},
			[3]int{a, 0, b}, [3]int{-a, 0, b})
	}
	return offs
}()

// Serena imitates the Serena matrix: a 3D FEM geomechanical problem,
// N = 1391349, nnz ≈ 64.1M (≈46 per row). The stand-in is a 3D grid operator
// with a 45-point neighborhood and mild heterogeneity. scale shrinks each
// grid dimension (scale=1 is full size, 112×112×111).
func Serena(scale int) Matrix {
	if scale < 1 {
		scale = 1
	}
	nx, ny, nz := 112/scale, 112/scale, 111/scale
	return serenaDims(nx, ny, nz)
}

func serenaDims(nx, ny, nz int) Matrix {
	const seed = 0x5e8e4a
	const sigma = 0.5
	n := nx * ny * nz
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	a := AssembleLaplacian(n, func(em EdgeEmitter) {
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					i := idx(x, y, z)
					boundary := false
					for _, o := range serenaOffsets {
						ax, ay, az := x+o[0], y+o[1], z+o[2]
						if ax < 0 || ax >= nx || ay < 0 || ay >= ny || az < 0 || az >= nz {
							boundary = true
							continue
						}
						j := idx(ax, ay, az)
						if j > i { // each undirected edge exactly once
							em.Edge(i, j, lognormalWeight(seed, i, j, sigma))
						}
					}
					if boundary {
						em.Diag(i, 1)
					}
				}
			}
		}
	})
	return Matrix{Name: "Serena", A: a, PaperN: 1391349, PaperNNZ: 64131971}
}
