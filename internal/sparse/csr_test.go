package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func denseOf(a *CSR) []float64 {
	d := make([]float64, a.Rows*a.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d[i*a.Cols+int(a.Col[k])] += a.Val[k]
		}
	}
	return d
}

func randomCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				b.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

func TestBuilderSumsDuplicates(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 1, 1.5)
	b.Add(0, 1, 2.5)
	b.Add(1, 0, -1)
	a := b.Build()
	if a.NNZ() != 2 {
		t.Fatalf("nnz = %d want 2", a.NNZ())
	}
	if a.At(0, 1) != 4 || a.At(1, 0) != -1 || a.At(0, 0) != 0 {
		t.Fatalf("bad values: %v", a.Val)
	}
}

// buildBySort is the Build the counting sort replaced, kept as the reference:
// one global sort of the triplets by (row, col), duplicates summed in the
// order the sort leaves them, Col/Val grown by append.
func buildBySort(b *Builder) *CSR {
	es := slices.Clone(b.entries)
	sort.Slice(es, func(i, j int) bool {
		if es[i].Row != es[j].Row {
			return es[i].Row < es[j].Row
		}
		return es[i].Col < es[j].Col
	})
	a := &CSR{Rows: b.rows, Cols: b.cols, RowPtr: make([]int, b.rows+1)}
	for k := 0; k < len(es); {
		e := es[k]
		v := e.Val
		for k++; k < len(es) && es[k].Row == e.Row && es[k].Col == e.Col; k++ {
			v += es[k].Val
		}
		a.Col = append(a.Col, e.Col)
		a.Val = append(a.Val, v)
		a.RowPtr[e.Row+1]++
	}
	for i := 0; i < b.rows; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	return a
}

func sameCSR(t *testing.T, tag string, got, want *CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) {
		t.Fatalf("%s: structure differs: RowPtr %v Col %v, want %v %v", tag, got.RowPtr, got.Col, want.RowPtr, want.Col)
	}
	for k := range want.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("%s: Val[%d] = %g, want %g", tag, k, got.Val[k], want.Val[k])
		}
	}
}

// TestBuildMatchesSortedBuild: on random triplets in random order, with no
// coordinate added more than twice (a+b = b+a exactly, so the old unstable
// sort's duplicate order cannot matter), Build is byte-equal to the global
// sort it replaced — empty rows, rectangular shapes and rows past the
// insertion-sort cutoff included.
func TestBuildMatchesSortedBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(200)
		b := NewBuilder(rows, cols)
		for k, n := 0, rng.Intn(rows*cols/2+1); k < n; k++ {
			i, j := rng.Intn(rows), rng.Intn(cols)
			b.Add(i, j, rng.NormFloat64())
			if rng.Intn(4) == 0 {
				b.Add(i, j, rng.NormFloat64())
			}
		}
		// Drop third and later copies of a coordinate, keeping the order.
		seen := map[[2]int32]int{}
		kept := b.entries[:0]
		for _, e := range b.entries {
			key := [2]int32{e.Row, e.Col}
			if seen[key] < 2 {
				seen[key]++
				kept = append(kept, e)
			}
		}
		b.entries = kept
		sameCSR(t, fmt.Sprintf("trial %d (%d×%d, %d entries)", trial, rows, cols, len(kept)), b.Build(), buildBySort(b))
	}
}

// TestBuildSumsDuplicatesInInsertionOrder: three or more entries at one
// coordinate sum as ((a+b)+c) in the order they were added, whatever the
// columns around them, in short rows and in rows long enough to take the
// stable merge instead of insertion sort. 1e16+1 rounds back to 1e16, so the
// order decides between 0 and 1.
func TestBuildSumsDuplicatesInInsertionOrder(t *testing.T) {
	for _, width := range []int{3, 2 * sortRowInsertionMax} {
		b := NewBuilder(2, width)
		for j := width - 1; j >= 0; j-- { // descending: the row must be sorted
			b.Add(0, j, 1)
			b.Add(0, j, 1e16)
			b.Add(0, j, -1e16)
			b.Add(1, j, 1e16)
			b.Add(1, j, -1e16)
			b.Add(1, j, 1)
		}
		a := b.Build()
		if a.NNZ() != 2*width {
			t.Fatalf("width %d: nnz %d", width, a.NNZ())
		}
		for j := 0; j < width; j++ {
			if got := a.At(0, j); got != 0 {
				t.Fatalf("width %d: (0,%d) = %g, want (1+1e16)-1e16 = 0", width, j, got)
			}
			if got := a.At(1, j); got != 1 {
				t.Fatalf("width %d: (1,%d) = %g, want (1e16-1e16)+1 = 1", width, j, got)
			}
		}
	}
}

// TestSortRow: SortRow equals a stable sort of the (col, val) pairs, on
// either side of the insertion-sort cutoff, with duplicate columns.
func TestSortRow(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, n := range []int{0, 1, 2, 7, sortRowInsertionMax, sortRowInsertionMax + 1, 500} {
		for _, span := range []int{3, 10 * n} {
			col, val := make([]int32, n), make([]float64, n)
			for k := range col {
				col[k], val[k] = rng.Int31n(int32(span+1)), float64(k)
			}
			type pair struct {
				c int32
				v float64
			}
			want := make([]pair, n)
			for k := range want {
				want[k] = pair{col[k], val[k]}
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].c < want[j].c })
			SortRow(col, val)
			for k := range want {
				if col[k] != want[k].c || val[k] != want[k].v {
					t.Fatalf("n=%d span=%d: [%d] = (%d,%g), want (%d,%g)", n, span, k, col[k], val[k], want[k].c, want[k].v)
				}
			}
		}
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2, 2).Add(2, 0, 1)
}

// TestBuilderIndexLimitPanics: a dimension past MaxIndex cannot be held in
// the 32-bit column indices, so the Builder refuses it by name before
// allocating anything, in either dimension.
func TestBuilderIndexLimitPanics(t *testing.T) {
	for _, dims := range [][2]int{{MaxIndex + 1, 1}, {1, MaxIndex + 1}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "32-bit index limit") {
					t.Fatalf("%v: panic %q, want the 32-bit index limit named", dims, msg)
				}
			}()
			NewBuilder(dims[0], dims[1]).Build()
		}()
	}
	NewBuilder(2, MaxIndex).Build() // at the limit: fine
}

// TestBytesMatchesElementSizes pins CSR.Bytes to the element sizes of the
// slices it holds, so a change of index or value type cannot leave the byte
// count (the service's registry_bytes) behind.
func TestBytesMatchesElementSizes(t *testing.T) {
	a := randomCSR(rand.New(rand.NewSource(34)), 7, 9, 0.4)
	want := len(a.RowPtr)*int(unsafe.Sizeof(a.RowPtr[0])) +
		len(a.Col)*int(unsafe.Sizeof(a.Col[0])) +
		len(a.Val)*int(unsafe.Sizeof(a.Val[0]))
	if got := a.Bytes(); got != want {
		t.Fatalf("Bytes() = %d, element sizes give %d", got, want)
	}
	if got, want := a.Bytes(), 12*a.NNZ()+8*(a.Rows+1); got != want {
		t.Fatalf("Bytes() = %d, want 12 B per entry + 8 B per row pointer = %d", got, want)
	}
}

func TestBuildEmptyRows(t *testing.T) {
	b := NewBuilder(4, 4)
	b.Add(2, 1, 3)
	a := b.Build()
	if a.RowPtr[0] != 0 || a.RowPtr[1] != 0 || a.RowPtr[2] != 0 || a.RowPtr[3] != 1 || a.RowPtr[4] != 1 {
		t.Fatalf("rowptr = %v", a.RowPtr)
	}
	y := make([]float64, 4)
	a.MulVec(y, []float64{1, 1, 1, 1})
	if y[2] != 3 || y[0] != 0 {
		t.Fatalf("y = %v", y)
	}
}

func TestMulVecKnown(t *testing.T) {
	// [2 0 1; 0 3 0; 4 0 5]
	a := FromDense(3, 3, []float64{2, 0, 1, 0, 3, 0, 4, 0, 5})
	y := make([]float64, 3)
	a.MulVec(y, []float64{1, 2, 3})
	want := []float64{5, 6, 19}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v want %v", y, want)
		}
	}
}

func TestMulVecRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomCSR(rng, 10, 10, 0.4)
	x := make([]float64, 10)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	full := make([]float64, 10)
	a.MulVec(full, x)
	part := make([]float64, 10)
	a.MulVecRange(part, x, 3, 7)
	for i := 3; i < 7; i++ {
		if part[i] != full[i] {
			t.Fatalf("row %d: %g want %g", i, part[i], full[i])
		}
	}
	for _, i := range []int{0, 1, 2, 7, 8, 9} {
		if part[i] != 0 {
			t.Fatalf("row %d written outside range", i)
		}
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomCSR(rng, 7, 5, 0.3)
	tt := a.Transpose().Transpose()
	da, dt := denseOf(a), denseOf(tt)
	for i := range da {
		if da[i] != dt[i] {
			t.Fatal("transpose round trip mismatch")
		}
	}
}

func TestMulMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomCSR(rng, 6, 8, 0.4)
	b := randomCSR(rng, 8, 5, 0.4)
	c := Mul(a, b)
	da, db, dc := denseOf(a), denseOf(b), denseOf(c)
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			var s float64
			for k := 0; k < 8; k++ {
				s += da[i*8+k] * db[k*5+j]
			}
			if math.Abs(s-dc[i*5+j]) > 1e-12 {
				t.Fatalf("(%d,%d): %g want %g", i, j, dc[i*5+j], s)
			}
		}
	}
}

func TestTripleProductSymmetryAndSize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// SPD-ish A: diagonally dominant symmetric.
	n := 12
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 4)
		if i+1 < n {
			b.Add(i, i+1, -1)
			b.Add(i+1, i, -1)
		}
	}
	a := b.Build()
	// Aggregation-style P: n×(n/3), each row one unit entry.
	pb := NewBuilder(n, n/3)
	for i := 0; i < n; i++ {
		pb.Add(i, i/3, 1)
	}
	p := pb.Build()
	_ = rng
	ac := TripleProduct(p, a)
	if ac.Rows != n/3 || ac.Cols != n/3 {
		t.Fatalf("coarse size %d×%d", ac.Rows, ac.Cols)
	}
	if !ac.IsSymmetric(1e-14) {
		t.Fatal("Galerkin product should be symmetric")
	}
}

func TestAddScaleIdentity(t *testing.T) {
	a := Identity(4)
	b := Identity(4)
	c := Add(a, 2, b) // 3·I
	for i := 0; i < 4; i++ {
		if c.At(i, i) != 3 {
			t.Fatalf("diag %d = %g", i, c.At(i, i))
		}
	}
	c.Scale(0.5)
	if c.At(0, 0) != 1.5 {
		t.Fatal("Scale broken")
	}
}

func TestDiag(t *testing.T) {
	a := FromDense(2, 2, []float64{4, -1, -1, 3})
	d := a.Diag()
	if d[0] != 4 || d[1] != 3 {
		t.Fatalf("diag = %v", d)
	}
}

func TestIsSymmetric(t *testing.T) {
	sym := FromDense(2, 2, []float64{1, 2, 2, 5})
	if !sym.IsSymmetric(0) {
		t.Fatal("should be symmetric")
	}
	asym := FromDense(2, 2, []float64{1, 2, 3, 5})
	if asym.IsSymmetric(1e-12) {
		t.Fatal("should not be symmetric")
	}
	if FromDense(1, 2, []float64{1, 2}).IsSymmetric(0) {
		t.Fatal("non-square can't be symmetric")
	}
}

func TestRowNNZRange(t *testing.T) {
	a := FromDense(3, 3, []float64{1, 1, 1, 0, 1, 0, 0, 0, 0})
	min, max, mean := a.RowNNZRange()
	if min != 0 || max != 3 || math.Abs(mean-4.0/3) > 1e-15 {
		t.Fatalf("min=%d max=%d mean=%g", min, max, mean)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestQuickTransposeOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := randomCSR(rng, m, k, 0.5)
		b := randomCSR(rng, k, n, 0.5)
		lhs := denseOf(Mul(a, b).Transpose())
		rhs := denseOf(Mul(b.Transpose(), a.Transpose()))
		for i := range lhs {
			if math.Abs(lhs[i]-rhs[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: MulVec is linear: A(αx + y) = αAx + Ay.
func TestQuickMulVecLinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		a := randomCSR(rng, n, n, 0.4)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		alpha := rng.NormFloat64()
		comb := make([]float64, n)
		for i := range comb {
			comb[i] = alpha*x[i] + y[i]
		}
		lhs := make([]float64, n)
		a.MulVec(lhs, comb)
		ax := make([]float64, n)
		ay := make([]float64, n)
		a.MulVec(ax, x)
		a.MulVec(ay, y)
		for i := range lhs {
			if math.Abs(lhs[i]-(alpha*ax[i]+ay[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
