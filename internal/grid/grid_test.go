package grid

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func TestStencilPoints(t *testing.T) {
	cases := map[Stencil]int{Star7: 7, Box27: 27, Box125: 125, Star5: 5, Box9: 9}
	for s, want := range cases {
		if got := s.Points(); got != want {
			t.Errorf("%v points = %d want %d", s, got, want)
		}
		if len(s.offsets()) != want-1 {
			t.Errorf("%v offsets = %d want %d", s, len(s.offsets()), want-1)
		}
	}
}

func TestStencilString(t *testing.T) {
	if Box125.String() != "125-pt" || Star5.String() != "5-pt" {
		t.Fatal("String broken")
	}
	if Stencil(99).String() == "" {
		t.Fatal("unknown stencil should still format")
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	g := Grid{Nx: 3, Ny: 4, Nz: 5, Stencil: Star7}
	for i := 0; i < g.N(); i++ {
		x, y, z := g.Coords(i)
		if g.Index(x, y, z) != i {
			t.Fatalf("round trip failed at %d", i)
		}
	}
}

func TestLaplacianInteriorRow7pt(t *testing.T) {
	g := NewCube(5, Star7)
	a := g.Laplacian()
	i := g.Index(2, 2, 2) // interior point
	if a.At(i, i) != 6 {
		t.Fatalf("interior diag = %g want 6", a.At(i, i))
	}
	if got := a.RowPtr[i+1] - a.RowPtr[i]; got != 7 {
		t.Fatalf("interior row nnz = %d want 7", got)
	}
	if a.At(i, g.Index(3, 2, 2)) != -1 {
		t.Fatal("off-diagonal should be -1")
	}
}

func TestLaplacianCornerKeepsDiag(t *testing.T) {
	g := NewCube(4, Star7)
	a := g.Laplacian()
	i := g.Index(0, 0, 0)
	if a.At(i, i) != 6 {
		t.Fatalf("corner diag = %g want 6 (Dirichlet)", a.At(i, i))
	}
	if got := a.RowPtr[i+1] - a.RowPtr[i]; got != 4 {
		t.Fatalf("corner row nnz = %d want 4", got)
	}
}

func TestLaplacian125InteriorRow(t *testing.T) {
	g := NewCube(7, Box125)
	a := g.Laplacian()
	i := g.Index(3, 3, 3)
	if got := a.RowPtr[i+1] - a.RowPtr[i]; got != 125 {
		t.Fatalf("interior row nnz = %d want 125", got)
	}
	if a.At(i, i) != 124 {
		t.Fatalf("diag = %g want 124", a.At(i, i))
	}
}

func TestLaplacianSymmetricSPD(t *testing.T) {
	for _, s := range []Stencil{Star7, Box27, Box125} {
		g := NewCube(5, s)
		a := g.Laplacian()
		if !a.IsSymmetric(0) {
			t.Fatalf("%v Laplacian not symmetric", s)
		}
		// Strict diagonal dominance at the boundary plus weak dominance and
		// irreducibility in the interior imply SPD; check x'Ax > 0 for a few
		// vectors as a smoke test.
		x := make([]float64, a.Rows)
		y := make([]float64, a.Rows)
		for trial := 0; trial < 3; trial++ {
			for i := range x {
				x[i] = math.Sin(float64(i*(trial+1)) + 0.3)
			}
			a.MulVec(y, x)
			var quad float64
			for i := range x {
				quad += x[i] * y[i]
			}
			if quad <= 0 {
				t.Fatalf("%v: x'Ax = %g not positive", s, quad)
			}
		}
	}
}

// laplacianBySort is the assembly Laplacian replaced, kept as the reference:
// every (row, col, val) triplet into one list, one global sort, then CSR.
func laplacianBySort(g Grid) *sparse.CSR {
	type triplet struct {
		row, col int
		val      float64
	}
	offs := g.Stencil.offsets()
	var ts []triplet
	for z := 0; z < g.Nz; z++ {
		for y := 0; y < g.Ny; y++ {
			for x := 0; x < g.Nx; x++ {
				i := g.Index(x, y, z)
				ts = append(ts, triplet{i, i, float64(len(offs))})
				for _, o := range offs {
					nx, ny, nz := x+o.dx, y+o.dy, z+o.dz
					if nx >= 0 && nx < g.Nx && ny >= 0 && ny < g.Ny && nz >= 0 && nz < g.Nz {
						ts = append(ts, triplet{i, g.Index(nx, ny, nz), -1})
					}
				}
			}
		}
	}
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].row != ts[b].row {
			return ts[a].row < ts[b].row
		}
		return ts[a].col < ts[b].col
	})
	n := g.N()
	a := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for _, tr := range ts {
		a.Col = append(a.Col, int32(tr.col))
		a.Val = append(a.Val, tr.val)
		a.RowPtr[tr.row+1]++
	}
	for i := 0; i < n; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	return a
}

// TestLaplacianMatchesSortedTriplets: the row-ordered assembly is byte-equal
// to the triplet sort for every stencil, on cubes and squares from one point
// up, and on non-cubic grids where the stencil reaches past a whole axis
// (n ≤ 2r). Col and Val come out at their exact size.
func TestLaplacianMatchesSortedTriplets(t *testing.T) {
	var grids []Grid
	for _, n := range []int{1, 2, 3, 5, 16} {
		for _, s := range []Stencil{Star7, Box27, Box125} {
			grids = append(grids, NewCube(n, s))
		}
		for _, s := range []Stencil{Star5, Box9} {
			grids = append(grids, NewSquare(n, s))
		}
	}
	grids = append(grids,
		Grid{Nx: 2, Ny: 5, Nz: 3, Stencil: Box125},
		Grid{Nx: 7, Ny: 1, Nz: 4, Stencil: Box125},
		Grid{Nx: 4, Ny: 3, Nz: 2, Stencil: Box27},
		Grid{Nx: 1, Ny: 6, Nz: 2, Stencil: Star7},
		Grid{Nx: 5, Ny: 2, Nz: 1, Stencil: Box9},
		Grid{Nx: 1, Ny: 3, Nz: 1, Stencil: Star5})
	for _, g := range grids {
		got, want := g.Laplacian(), laplacianBySort(g)
		tag := fmt.Sprintf("%v %dx%dx%d", g.Stencil, g.Nx, g.Ny, g.Nz)
		if got.Rows != want.Rows || got.Cols != want.Cols || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) {
			t.Fatalf("%s: structure differs from the sorted triplets", tag)
		}
		for k := range want.Val {
			if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
				t.Fatalf("%s: Val[%d] = %g, want %g", tag, k, got.Val[k], want.Val[k])
			}
		}
		if cap(got.Col) != len(got.Col) || cap(got.Val) != len(got.Val) {
			t.Fatalf("%s: Col/Val cap %d/%d for %d entries", tag, cap(got.Col), cap(got.Val), len(got.Col))
		}
	}
}

func TestLaplacian2D(t *testing.T) {
	g := NewSquare(4, Star5)
	a := g.Laplacian()
	if a.Rows != 16 {
		t.Fatalf("rows = %d", a.Rows)
	}
	i := g.Index(1, 1, 0)
	if a.At(i, i) != 4 {
		t.Fatalf("diag = %g want 4", a.At(i, i))
	}
	g9 := NewSquare(5, Box9)
	a9 := g9.Laplacian()
	j := g9.Index(2, 2, 0)
	if got := a9.RowPtr[j+1] - a9.RowPtr[j]; got != 9 {
		t.Fatalf("9-pt interior nnz = %d", got)
	}
}

// TestLaplacianIndexLimitPanics: a grid past sparse.MaxIndex points cannot be
// held in 32-bit column indices; Laplacian refuses it by name before
// allocating (1291³ ≈ 2.15e9 points would need 16 GB of row pointers alone).
func TestLaplacianIndexLimitPanics(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "32-bit index limit") {
			t.Fatalf("panic %q, want the 32-bit index limit named", msg)
		}
	}()
	NewCube(1291, Star7).Laplacian()
}

func TestNewCubePanicsOn2D(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCube(3, Star5)
}

func TestNewSquarePanicsOn3D(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSquare(3, Star7)
}

func TestCoarsen(t *testing.T) {
	g := Grid{Nx: 9, Ny: 8, Nz: 1, Stencil: Star5}
	c := g.Coarsen()
	if c.Nx != 5 || c.Ny != 4 || c.Nz != 1 {
		t.Fatalf("coarse = %d×%d×%d", c.Nx, c.Ny, c.Nz)
	}
	g3 := NewCube(9, Star7).Coarsen()
	if g3.Nx != 5 || g3.Nz != 5 {
		t.Fatalf("3D coarse = %+v", g3)
	}
}

// Prolongation rows must sum to 1 (interpolation reproduces constants).
func TestProlongationPartitionOfUnity(t *testing.T) {
	for _, g := range []Grid{NewSquare(9, Star5), NewCube(9, Star7), {Nx: 8, Ny: 6, Nz: 1, Stencil: Star5}} {
		p := g.Prolongation()
		if p.Rows != g.N() || p.Cols != g.Coarsen().N() {
			t.Fatalf("P shape %d×%d", p.Rows, p.Cols)
		}
		for i := 0; i < p.Rows; i++ {
			var s float64
			for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
				s += p.Val[k]
			}
			if math.Abs(s-1) > 1e-12 {
				t.Fatalf("row %d sums to %g", i, s)
			}
		}
	}
}

func TestOnesRHS(t *testing.T) {
	g := NewSquare(4, Star5)
	a := g.Laplacian()
	b := OnesRHS(a)
	// For our Dirichlet Laplacian, row sums equal the number of exterior
	// neighbors: interior rows sum to 0, boundary rows are positive.
	i := g.Index(1, 1, 0)
	if b[i] != 0 {
		t.Fatalf("interior b = %g want 0", b[i])
	}
	if b[g.Index(0, 0, 0)] != 2 {
		t.Fatalf("corner b = %g want 2", b[g.Index(0, 0, 0)])
	}
}

// Property: Galerkin coarse operator PᵀAP of a Laplacian stays symmetric with
// nonnegative diagonal.
func TestQuickGalerkinCoarse(t *testing.T) {
	f := func(seed int64) bool {
		n := 4 + int(seed%5+5)%5 // 4..8
		g := NewSquare(n, Star5)
		a := g.Laplacian()
		p := g.Prolongation()
		ac := sparse.TripleProduct(p, a)
		if !ac.IsSymmetric(1e-12) {
			return false
		}
		for i := 0; i < ac.Rows; i++ {
			if ac.At(i, i) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
