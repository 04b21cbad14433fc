package synth

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func TestSplitmixDeterministic(t *testing.T) {
	if splitmix64(42) != splitmix64(42) {
		t.Fatal("splitmix64 not deterministic")
	}
	if splitmix64(1) == splitmix64(2) {
		t.Fatal("splitmix64 collision on trivial inputs")
	}
}

func TestHashUnitRange(t *testing.T) {
	for i := uint64(0); i < 1000; i++ {
		u := hashUnit(7, i, i*3)
		if u <= 0 || u >= 1 {
			t.Fatalf("hashUnit out of (0,1): %g", u)
		}
	}
}

func TestLognormalWeightSymmetricKey(t *testing.T) {
	if lognormalWeight(5, 10, 20, 1.5) != lognormalWeight(5, 20, 10, 1.5) {
		t.Fatal("weight must not depend on edge orientation")
	}
	if w := lognormalWeight(5, 1, 2, 1); w <= 0 {
		t.Fatalf("weight must be positive, got %g", w)
	}
}

func TestAssembleLaplacianPath(t *testing.T) {
	// Path graph 0-1-2 with unit weights plus a Dirichlet boost on node 0.
	a := AssembleLaplacian(3, func(em EdgeEmitter) {
		em.Edge(0, 1, 1)
		em.Edge(1, 2, 1)
		em.Diag(0, 2)
	})
	want := [][]float64{{3, -1, 0}, {-1, 2, -1}, {0, -1, 1}}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if got := a.At(i, j); got != want[i][j] {
				t.Fatalf("a[%d][%d] = %g want %g", i, j, got, want[i][j])
			}
		}
	}
	if !a.IsSymmetric(0) {
		t.Fatal("not symmetric")
	}
}

func TestAssembleLaplacianIsolatedVertex(t *testing.T) {
	a := AssembleLaplacian(2, func(em EdgeEmitter) {})
	if a.At(0, 0) != 1 || a.At(1, 1) != 1 {
		t.Fatal("isolated vertices should get unit diagonal")
	}
}

// TestAssembleLaplacianIndexLimitPanics: a graph past sparse.MaxIndex
// vertices is refused by name before the generator runs or anything is
// allocated.
func TestAssembleLaplacianIndexLimitPanics(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "32-bit index limit") {
			t.Fatalf("panic %q, want the 32-bit index limit named", msg)
		}
	}()
	AssembleLaplacian(sparse.MaxIndex+1, func(em EdgeEmitter) { t.Fatal("generator ran") })
}

func TestAssembleLaplacianRowsSorted(t *testing.T) {
	a := AssembleLaplacian(6, func(em EdgeEmitter) {
		em.Edge(0, 5, 1)
		em.Edge(0, 3, 1)
		em.Edge(0, 1, 1)
		em.Edge(2, 4, 1)
	})
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i] + 1; k < a.RowPtr[i+1]; k++ {
			if a.Col[k-1] >= a.Col[k] {
				t.Fatalf("row %d columns not strictly increasing: %v", i, a.Col[a.RowPtr[i]:a.RowPtr[i+1]])
			}
		}
	}
}

func checkSPDSmoke(t *testing.T, m Matrix) {
	t.Helper()
	a := m.A
	if !a.IsSymmetric(1e-12) {
		t.Fatalf("%s: not symmetric", m.Name)
	}
	x := make([]float64, a.Rows)
	y := make([]float64, a.Rows)
	for trial := 1; trial <= 3; trial++ {
		for i := range x {
			x[i] = math.Sin(float64(i*trial) + 0.1)
		}
		a.MulVec(y, x)
		var q float64
		for i := range x {
			q += x[i] * y[i]
		}
		if q <= 0 {
			t.Fatalf("%s: x'Ax = %g not positive", m.Name, q)
		}
	}
	// Diagonal must dominate or equal the absolute off-diagonal row sum.
	for i := 0; i < a.Rows; i++ {
		var off float64
		var diag float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.Col[k]) == i {
				diag = a.Val[k]
			} else {
				off += math.Abs(a.Val[k])
			}
		}
		if diag < off-1e-9*off {
			t.Fatalf("%s: row %d not diagonally dominant (%g < %g)", m.Name, i, diag, off)
		}
	}
}

func TestEcology2Reduced(t *testing.T) {
	m := Ecology2(16) // 62×62-ish
	checkSPDSmoke(t, m)
	_, _, mean := m.A.RowNNZRange()
	if mean < 4.5 || mean > 5.1 {
		t.Fatalf("ecology2 mean nnz/row = %g, want ≈5", mean)
	}
	if m.PaperN != 999999 {
		t.Fatal("paper metadata wrong")
	}
}

func TestThermal2Reduced(t *testing.T) {
	m := Thermal2(16)
	checkSPDSmoke(t, m)
	_, _, mean := m.A.RowNNZRange()
	if mean < 6.2 || mean > 7.5 {
		t.Fatalf("thermal2 mean nnz/row = %g, want ≈7", mean)
	}
}

func TestSerenaReduced(t *testing.T) {
	m := Serena(6) // 18×18×18
	checkSPDSmoke(t, m)
	_, _, mean := m.A.RowNNZRange()
	if mean < 36 || mean > 46 {
		t.Fatalf("serena mean nnz/row = %g, want ≈42-45 at reduced size", mean)
	}
}

func TestSerenaOffsetsCount(t *testing.T) {
	if len(serenaOffsets) != 44 {
		t.Fatalf("serena neighbor count = %d want 44", len(serenaOffsets))
	}
	seen := map[[3]int]bool{}
	for _, o := range serenaOffsets {
		if seen[o] {
			t.Fatalf("duplicate offset %v", o)
		}
		seen[o] = true
		if o == [3]int{0, 0, 0} {
			t.Fatal("center must not be an offset")
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Ecology2(32).A
	b := Ecology2(32).A
	if a.NNZ() != b.NNZ() {
		t.Fatal("nondeterministic structure")
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] {
			t.Fatal("nondeterministic values")
		}
	}
}

func TestScaleClamped(t *testing.T) {
	m := Ecology2(0) // clamps to 1: full size — just check it doesn't panic
	// building a full-size ecology2 here is fine: ~1M rows, 5M nnz
	if m.A.Rows != 999*1001 {
		t.Fatalf("full-size rows = %d", m.A.Rows)
	}
}

// Property: assembled Laplacians have zero row sums except where Diag boosts
// or isolated-vertex regularization apply.
func TestQuickLaplacianRowSums(t *testing.T) {
	f := func(seed int64) bool {
		n := 5 + int(uint64(seed)%10)
		a := AssembleLaplacian(n, func(em EdgeEmitter) {
			for i := 0; i+1 < n; i++ {
				em.Edge(i, i+1, 1+hashUnit(uint64(seed), uint64(i), uint64(i+1)))
			}
		})
		for i := 0; i < n; i++ {
			var s float64
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				s += a.Val[k]
			}
			if math.Abs(s) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
