// Package sparse implements compressed sparse row (CSR) matrices and the
// kernels the solver stack needs: sparse matrix-vector products (the SPMV
// kernel of the paper), transposition, Galerkin triple products for algebraic
// multigrid, and diagonal/row utilities.
package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/vec"
)

// CSR is a sparse matrix in compressed sparse row format.
//
// Row i's nonzeros are Col[RowPtr[i]:RowPtr[i+1]] / Val[RowPtr[i]:RowPtr[i+1]],
// with column indices strictly increasing within a row. Column indices are
// 32-bit, so a stored entry costs 12 bytes (8 B value + 4 B index) — the
// figure every SPMV cost model in this repository charges — and no dimension
// may exceed MaxIndex. RowPtr is int, so the entry count is not bounded.
//
// The parallel SPMV caches an nnz-balanced chunk plan on the matrix; callers
// that mutate the structure (Rows, RowPtr, Col) after the first
// MulVec/ChunkPlan call must call InvalidatePlan so the next product rebuilds
// the plan. Mutating Val (e.g. Scale) is fine.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	Col        []int32
	Val        []float64

	plan atomic.Pointer[Chunks]
}

// NNZ returns the number of stored nonzeros.
func (a *CSR) NNZ() int { return len(a.Val) }

// Bytes returns the resident size of the matrix arrays: RowPtr, Col and Val
// at their element sizes (8 B per row pointer, 12 B per stored entry).
func (a *CSR) Bytes() int {
	return 8*len(a.RowPtr) + 4*len(a.Col) + 8*len(a.Val)
}

// MaxIndex is the largest row or column count a CSR can hold: column indices
// (and the Builder's pending row indices) are int32.
const MaxIndex = math.MaxInt32

// CheckDims panics when a rows×cols matrix exceeds MaxIndex in either
// dimension. Every assembler calls it before allocating, so an oversized
// operator fails with the limit named rather than with a wrapped index.
func CheckDims(rows, cols int) {
	if err := dimsError(rows, cols); err != nil {
		panic(err.Error())
	}
}

// dimsError is CheckDims' verdict as an error, for readers of outside input.
func dimsError(rows, cols int) error {
	if rows > MaxIndex || cols > MaxIndex {
		return fmt.Errorf("sparse: %d×%d matrix exceeds the 32-bit index limit of %d rows and columns", rows, cols, MaxIndex)
	}
	return nil
}

// Dims returns the matrix dimensions (rows, cols).
func (a *CSR) Dims() (rows, cols int) { return a.Rows, a.Cols }

// Entry is a coordinate-format matrix element used while assembling.
type Entry struct {
	Row, Col int32
	Val      float64
}

// Builder accumulates coordinate entries and produces a CSR matrix.
// Duplicate (row, col) entries are summed in insertion order, matching finite
// element assembly: three or more entries at one coordinate sum as
// ((a+b)+c)+…, so the bits depend only on the order of the Add calls. (No
// caller in this repository adds one coordinate more than twice.)
type Builder struct {
	rows, cols int
	entries    []Entry
}

// NewBuilder returns a builder for a rows×cols matrix. It panics (CheckDims)
// when either dimension exceeds MaxIndex.
func NewBuilder(rows, cols int) *Builder {
	CheckDims(rows, cols)
	return &Builder{rows: rows, cols: cols}
}

// Add accumulates a value at (row, col).
func (b *Builder) Add(row, col int, val float64) {
	if row < 0 || row >= b.rows || col < 0 || col >= b.cols {
		panic(fmt.Sprintf("sparse: entry (%d,%d) outside %d×%d", row, col, b.rows, b.cols))
	}
	b.entries = append(b.entries, Entry{int32(row), int32(col), val})
}

// Reserve grows the internal entry buffer to hold at least n entries.
func (b *Builder) Reserve(n int) {
	if cap(b.entries) < n {
		grown := make([]Entry, len(b.entries), n)
		copy(grown, b.entries)
		b.entries = grown
	}
}

// Build produces the CSR matrix in O(nnz + rows): a counting sort by row
// scatters the entries into exact-size arrays in insertion order, each row is
// sorted by column with SortRow (stable, so duplicates keep insertion order),
// and duplicates are summed in that order while the rows are compacted in
// place. Entries that cancel to an exact zero are kept as stored (explicit)
// zeros — the structure of the assembly is preserved, which keeps chunk
// plans, partitions and symbolic products stable even when values cancel.
func (b *Builder) Build() *CSR {
	nnz := len(b.entries)
	a := &CSR{Rows: b.rows, Cols: b.cols, RowPtr: make([]int, b.rows+1),
		Col: make([]int32, nnz), Val: make([]float64, nnz)}
	for _, e := range b.entries {
		a.RowPtr[e.Row+1]++
	}
	for i := 0; i < b.rows; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	next := make([]int, b.rows)
	copy(next, a.RowPtr)
	for _, e := range b.entries {
		p := next[e.Row]
		a.Col[p], a.Val[p] = e.Col, e.Val
		next[e.Row] = p + 1
	}
	w := 0
	for i := 0; i < b.rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		SortRow(a.Col[lo:hi], a.Val[lo:hi])
		a.RowPtr[i] = w
		for k := lo; k < hi; {
			c, v := a.Col[k], a.Val[k]
			for k++; k < hi && a.Col[k] == c; k++ {
				v += a.Val[k]
			}
			a.Col[w], a.Val[w] = c, v
			w++
		}
	}
	a.RowPtr[b.rows] = w
	a.Col, a.Val = a.Col[:w], a.Val[:w]
	return a
}

// sortRowInsertionMax is the longest out-of-order row SortRow insertion-sorts.
// Assembled rows are short and nearly sorted, where insertion sort is linear;
// a longer unsorted row (a dense row in an uploaded file) takes the
// O(d log d) stable merge instead, so no single row makes assembly quadratic.
const sortRowInsertionMax = 64

// SortRow sorts one CSR row's (col, val) pairs by column, stably: equal
// columns keep their relative order. It is the one row sort every assembly
// path shares (Builder.Build, PermuteSym, synth.AssembleLaplacian).
func SortRow(col []int32, val []float64) {
	if len(col) > sortRowInsertionMax {
		if !slices.IsSorted(col) {
			sort.Stable(rowByCol{col, val})
		}
		return
	}
	for k := 1; k < len(col); k++ {
		c, v := col[k], val[k]
		m := k
		for m > 0 && col[m-1] > c {
			col[m], val[m] = col[m-1], val[m-1]
			m--
		}
		col[m], val[m] = c, v
	}
}

// rowByCol is one row's parallel (col, val) arrays as a sort.Interface.
type rowByCol struct {
	col []int32
	val []float64
}

func (r rowByCol) Len() int           { return len(r.col) }
func (r rowByCol) Less(i, j int) bool { return r.col[i] < r.col[j] }
func (r rowByCol) Swap(i, j int) {
	r.col[i], r.col[j] = r.col[j], r.col[i]
	r.val[i], r.val[j] = r.val[j], r.val[i]
}

// FromDense converts a dense row-major matrix to CSR, skipping zeros.
func FromDense(rows, cols int, data []float64) *CSR {
	if len(data) != rows*cols {
		panic("sparse: FromDense size mismatch")
	}
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := data[i*cols+j]; v != 0 {
				b.Add(i, j, v)
			}
		}
	}
	return b.Build()
}

// At returns element (i, j), using binary search within the row.
func (a *CSR) At(i, j int) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	k, found := slices.BinarySearch(a.Col[lo:hi], int32(j))
	if found {
		return a.Val[k+lo]
	}
	return 0
}

// Chunks is a parallel SPMV execution plan: chunk c covers rows
// [Bounds[c], Bounds[c+1]), with chunk boundaries placed so every chunk
// carries roughly equal work (nonzeros, with each row costing one extra unit
// so empty-row-heavy matrices still split). The geometry is a pure function
// of the matrix structure, never of the worker count.
type Chunks struct {
	Bounds []int
}

// RowWork is the cumulative work coordinate at row r relative to row lo for
// a row-pointer array: nonzeros plus one unit per row, so empty-row-heavy
// structures still split. Shared by every operator that plans chunks over a
// prefix-nnz array (CSR itself and the matrix-free stencils, which keep a
// synthetic row-pointer purely so their chunk geometry — and hence every
// fold order — matches the assembled matrix bit for bit).
func RowWork(rowPtr []int, lo, r int) int {
	return rowPtr[r] - rowPtr[lo] + (r - lo)
}

// SearchRow returns the first row r in [lo, hi] with RowWork(rowPtr, lo, r) >= w.
func SearchRow(rowPtr []int, lo, hi, w int) int {
	return lo + sort.Search(hi-lo, func(r int) bool {
		return RowWork(rowPtr, lo, lo+r) >= w
	})
}

// WorkChunks places nnz-balanced chunk boundaries over rows [lo, hi) of a
// row-pointer array. The geometry is a pure function of the structure.
func WorkChunks(rowPtr []int, lo, hi int) Chunks {
	total := RowWork(rowPtr, lo, hi)
	nc := par.NumChunks(total)
	if nc < 1 {
		nc = 1
	}
	bounds := make([]int, nc+1)
	bounds[0] = lo
	for c := 1; c < nc; c++ {
		bounds[c] = SearchRow(rowPtr, lo, hi, c*total/nc)
	}
	bounds[nc] = hi
	return Chunks{Bounds: bounds}
}

func (a *CSR) rowWork(lo, r int) int         { return RowWork(a.RowPtr, lo, r) }
func (a *CSR) searchRow(lo, hi, w int) int   { return SearchRow(a.RowPtr, lo, hi, w) }
func (a *CSR) buildChunks(lo, hi int) Chunks { return WorkChunks(a.RowPtr, lo, hi) }

// ChunkPlan returns the matrix's cached full-range chunk plan, building it
// on first use. Safe for concurrent callers (comm ranks share the matrix).
// The cache is explicit: InvalidatePlan drops it after a structural change.
func (a *CSR) ChunkPlan() *Chunks {
	if p := a.plan.Load(); p != nil {
		return p
	}
	ch := a.buildChunks(0, a.Rows)
	if a.plan.CompareAndSwap(nil, &ch) {
		return &ch
	}
	if p := a.plan.Load(); p != nil {
		return p
	}
	// A concurrent InvalidatePlan raced the CAS; our freshly built plan is
	// still valid for the structure we read.
	return &ch
}

// InvalidatePlan drops the cached chunk plan. Callers that mutate the matrix
// structure (RowPtr/Col/Rows) must invalidate before the next product, or a
// stale nnz-balanced plan — with out-of-range row bounds — would be served.
func (a *CSR) InvalidatePlan() { a.plan.Store(nil) }

// mulRows applies rows [r0, r1) of A to x, writing y[i-yoff] for row i. The
// inner product over a row is 4-way unrolled; rows are never split across
// chunks, so the per-row accumulation order — and hence the result bit
// pattern — is independent of the worker count.
//
// Columns index x as uint32 (they are never negative): amd64 folds a
// zero-extending 32-bit load into the scaled address, while a sign-extending
// one costs two extra address computations per entry.
func (a *CSR) mulRows(y, x []float64, r0, r1, yoff int) {
	rowPtr, col, val := a.RowPtr, a.Col, a.Val
	for i := r0; i < r1; i++ {
		var s0, s1, s2, s3 float64
		k, end := rowPtr[i], rowPtr[i+1]
		for ; k+4 <= end; k += 4 {
			s0 += val[k] * x[uint32(col[k])]
			s1 += val[k+1] * x[uint32(col[k+1])]
			s2 += val[k+2] * x[uint32(col[k+2])]
			s3 += val[k+3] * x[uint32(col[k+3])]
		}
		for ; k < end; k++ {
			s0 += val[k] * x[uint32(col[k])]
		}
		y[i-yoff] = (s0 + s1) + (s2 + s3)
	}
}

// mulVec is the shared SPMV dispatcher: rows [lo, hi) of A applied to x,
// row i written to y[i-yoff]. Small ranges run serially on the caller; the
// full range uses the cached chunk plan; partial ranges (rank-local SPMV)
// derive nnz-balanced chunk bounds by binary search inside each chunk body,
// so the dispatch allocates nothing.
func (a *CSR) mulVec(y, x []float64, lo, hi, yoff int) {
	if len(x) < a.Cols {
		panic(fmt.Sprintf("sparse: MulVec x too short: %d < %d", len(x), a.Cols))
	}
	if lo >= hi {
		return
	}
	total := a.rowWork(lo, hi)
	nc := par.NumChunks(total)
	if nc <= 1 {
		a.mulRows(y, x, lo, hi, yoff)
		return
	}
	if lo == 0 && hi == a.Rows {
		ch := a.ChunkPlan()
		n := len(ch.Bounds) - 1
		par.Default().ForChunks(n, func(c int) {
			a.mulRows(y, x, ch.Bounds[c], ch.Bounds[c+1], yoff)
		})
		return
	}
	par.Default().ForChunks(nc, func(c int) {
		r0 := a.searchRow(lo, hi, c*total/nc)
		r1 := a.searchRow(lo, hi, (c+1)*total/nc)
		a.mulRows(y, x, r0, r1, yoff)
	})
}

// MulVec computes y = A·x. y and x must not alias.
func (a *CSR) MulVec(y, x []float64) {
	a.mulVec(y, x, 0, a.Rows, 0)
}

// MulVecRange computes y[i] = (A·x)[i] for i in [lo, hi). It is the
// rank-local SPMV: a rank owning rows [lo,hi) applies only those rows.
// x must cover all referenced columns; y is indexed globally.
func (a *CSR) MulVecRange(y, x []float64, lo, hi int) {
	a.mulVec(y, x, lo, hi, 0)
}

// MulVecRangeInto computes rows [lo, hi) of A·x into the local-indexed
// destination: y[i-lo] = (A·x)[i]. This is the form the SPMD runtime needs —
// each rank's vectors are local slices of length hi-lo.
func (a *CSR) MulVecRangeInto(y, x []float64, lo, hi int) {
	a.mulVec(y, x, lo, hi, lo)
}

// FusedRows is mulRows with the per-row result multiplied by scale and
// then, for a non-nil inv, by inv[i-yoff] — y[i-yoff] = inv[i-yoff]·scale·
// (A·x)[i] — which is bit-identical to mulRows followed by element-wise
// scales of y (one IEEE multiply each either way), but saves the extra
// read+write sweeps over y. It is the RowKernel FusedProduct drives.
func (a *CSR) FusedRows(y, x []float64, r0, r1, yoff int, scale float64, inv []float64) {
	if scale == 1 && inv == nil {
		a.mulRows(y, x, r0, r1, yoff)
		return
	}
	rowPtr, col, val := a.RowPtr, a.Col, a.Val
	for i := r0; i < r1; i++ {
		var s0, s1, s2, s3 float64
		k, end := rowPtr[i], rowPtr[i+1]
		for ; k+4 <= end; k += 4 {
			s0 += val[k] * x[uint32(col[k])]
			s1 += val[k+1] * x[uint32(col[k+1])]
			s2 += val[k+2] * x[uint32(col[k+2])]
			s3 += val[k+3] * x[uint32(col[k+3])]
		}
		for ; k < end; k++ {
			s0 += val[k] * x[uint32(col[k])]
		}
		v := (s0 + s1) + (s2 + s3)
		if scale != 1 {
			v *= scale
		}
		if inv != nil {
			v *= inv[i-yoff]
		}
		y[i-yoff] = v
	}
}

// RowKernel is an operator's row kernel as the fused dispatcher drives it:
// FusedRows writes y[i-yoff] = inv[i-yoff]·scale·(A·x)[i] for rows [r0, r1)
// (a nil inv meaning no row scale), bit-identical to the plain product
// followed by the element-wise scales.
type RowKernel interface {
	FusedRows(y, x []float64, r0, r1, yoff int, scale float64, inv []float64)
	ChunkPlan() *Chunks
}

// fusedChunk produces one chunk [r0, r1) of a fused product: rows writes
// y[i-yoff] = inv[i-yoff]·scale·(A·x)[i] (a nil inv meaning no row scale)
// and fusedChunk adds each local dot partial out[k] += ws[k]·p of the
// unscaled product p (nil ws[k] means p·p) as a fixed-association DotRange.
// Without dots the row scale rides the product's write-back; with dots the
// chunk is produced unscaled, dotted while hot, then scaled in place — the
// same bits either way, since every scale is one IEEE multiply per row.
// Shared by every operator's fused kernel (CSR and the matrix-free
// stencils), so their dots and row scales agree bit for bit.
func fusedChunk(rows RowKernel, out []float64, ws [][]float64, y, x []float64, r0, r1, yoff int, scale float64, inv []float64) {
	if len(ws) == 0 {
		rows.FusedRows(y, x, r0, r1, yoff, scale, inv)
		return
	}
	rows.FusedRows(y, x, r0, r1, yoff, scale, nil)
	for k, w := range ws {
		if w == nil {
			w = y
		}
		out[k] += vec.DotRange(w, y, r0-yoff, r1-yoff)
	}
	if inv != nil {
		for i := r0 - yoff; i < r1-yoff; i++ {
			y[i] *= inv[i]
		}
	}
}

// FusedProduct is the fused kernels' shared dispatcher over a row-pointer
// structure (the CSR's own, or a stencil's synthetic one): rows [lo, hi)
// split into the same nnz-balanced chunks the plain product uses (the
// kernel's cached plan for the full range), each produced by fusedChunk, and
// the chunks' dot partials folded in ascending chunk order — so the bits of
// y and dots depend only on the structure and the row range, never on the
// worker count. y equals the unfused product scaled exactly; the dots differ
// from vec.Dot only in chunk geometry (row-work-balanced instead of
// length-uniform), deterministically.
func FusedProduct(rowPtr []int, rows RowKernel, y, x []float64, lo, hi, yoff int, scale float64, inv []float64, ws [][]float64, dots []float64) {
	if len(ws) != len(dots) {
		panic("sparse: fused product ws/dots length mismatch")
	}
	for k := range dots {
		dots[k] = 0
	}
	if lo >= hi {
		return
	}
	total := RowWork(rowPtr, lo, hi)
	nc := par.NumChunks(total)
	if nc <= 1 {
		fusedChunk(rows, dots, ws, y, x, lo, hi, yoff, scale, inv)
		return
	}
	nd := len(ws)
	var bounds []int
	if lo == 0 && hi == len(rowPtr)-1 {
		bounds = rows.ChunkPlan().Bounds
		nc = len(bounds) - 1
	}
	var partials []float64
	if nd > 0 {
		partials = make([]float64, nc*nd)
	}
	par.Default().ForChunks(nc, func(c int) {
		var r0, r1 int
		if bounds != nil {
			r0, r1 = bounds[c], bounds[c+1]
		} else {
			r0 = SearchRow(rowPtr, lo, hi, c*total/nc)
			r1 = SearchRow(rowPtr, lo, hi, (c+1)*total/nc)
		}
		fusedChunk(rows, partials[c*nd:(c+1)*nd], ws, y, x, r0, r1, yoff, scale, inv)
	})
	// Ascending chunk order: the fold is a pure function of the geometry.
	for c := 0; c < nc; c++ {
		for k := 0; k < nd; k++ {
			dots[k] += partials[c*nd+k]
		}
	}
}

// MulVecFused computes y[i-yoff] = scale·(A·x)[i] for rows [lo, hi) and the
// local dot products dots[k] = ws[k]·y (nil ws[k] means y·y) in one pass over
// the rows, so the freshly produced chunk of y is dotted while still hot.
//
// Determinism contract: the row chunking is the same nnz-balanced plan the
// plain product uses, each chunk's dot partial is a fixed-association
// DotRange, and the partials fold in ascending chunk order — so the bits of
// y and dots depend only on the matrix structure and the row range, never on
// the worker count. y equals the unfused product scaled by scale exactly;
// the dots differ from vec.Dot only in chunk geometry (row-work-balanced
// instead of length-uniform), deterministically.
func (a *CSR) MulVecFused(y, x []float64, lo, hi, yoff int, scale float64, ws [][]float64, dots []float64) {
	a.MulVecFusedDiag(y, x, lo, hi, yoff, scale, nil, ws, dots)
}

// MulVecFusedDiag is MulVecFused with the row scale y[i-yoff] *= inv[i-yoff]
// applied after the dots (engine.FusedOperator): a diagonal preconditioner
// folded into the product's pass.
func (a *CSR) MulVecFusedDiag(y, x []float64, lo, hi, yoff int, scale float64, inv []float64, ws [][]float64, dots []float64) {
	if len(x) < a.Cols {
		panic(fmt.Sprintf("sparse: MulVecFused x too short: %d < %d", len(x), a.Cols))
	}
	FusedProduct(a.RowPtr, a, y, x, lo, hi, yoff, scale, inv, ws, dots)
}

// diagInto fills d[i-lo] with a(i,i) for rows [lo, hi) in one linear pass
// per row (column indices are sorted, so the scan stops at the first column
// past the diagonal). Zeros where the diagonal entry is absent.
func (a *CSR) diagInto(d []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		d[i-lo] = 0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := int(a.Col[k])
			if c >= i {
				if c == i {
					d[i-lo] = a.Val[k]
				}
				break
			}
		}
	}
}

// DiagRange returns the diagonal entries of rows [lo, hi) (zeros where
// absent), locally indexed — the form the rank-local preconditioners need.
func (a *CSR) DiagRange(lo, hi int) []float64 {
	d := make([]float64, hi-lo)
	n := hi
	if a.Cols < n {
		n = a.Cols
	}
	a.diagInto(d, lo, n)
	return d
}

// Diag returns the matrix diagonal as a slice (zeros where absent).
func (a *CSR) Diag() []float64 {
	n := a.Rows
	if a.Cols < n {
		n = a.Cols
	}
	d := make([]float64, a.Rows)
	a.diagInto(d, 0, n)
	return d
}

// Transpose returns Aᵀ as a new CSR matrix.
func (a *CSR) Transpose() *CSR {
	t := &CSR{Rows: a.Cols, Cols: a.Rows,
		RowPtr: make([]int, a.Cols+1),
		Col:    make([]int32, a.NNZ()),
		Val:    make([]float64, a.NNZ()),
	}
	// Count entries per column of A.
	for _, c := range a.Col {
		t.RowPtr[c+1]++
	}
	for i := 0; i < a.Cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := make([]int, a.Cols)
	copy(next, t.RowPtr[:a.Cols])
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.Col[k]
			p := next[c]
			t.Col[p] = int32(i)
			t.Val[p] = a.Val[k]
			next[c]++
		}
	}
	return t
}

// Mul returns the sparse product A·B.
func Mul(a, b *CSR) *CSR {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("sparse: Mul dimension mismatch %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := &CSR{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int, a.Rows+1)}
	// Gustavson's algorithm with a dense accumulator per row.
	acc := make([]float64, b.Cols)
	mark := make([]int, b.Cols)
	for i := range mark {
		mark[i] = -1
	}
	var cols []int32
	for i := 0; i < a.Rows; i++ {
		cols = cols[:0]
		for ka := a.RowPtr[i]; ka < a.RowPtr[i+1]; ka++ {
			j := a.Col[ka]
			av := a.Val[ka]
			for kb := b.RowPtr[j]; kb < b.RowPtr[j+1]; kb++ {
				cb := b.Col[kb]
				if mark[cb] != i {
					mark[cb] = i
					acc[cb] = 0
					cols = append(cols, cb)
				}
				acc[cb] += av * b.Val[kb]
			}
		}
		slices.Sort(cols)
		for _, cb := range cols {
			c.Col = append(c.Col, cb)
			c.Val = append(c.Val, acc[cb])
		}
		c.RowPtr[i+1] = len(c.Col)
	}
	return c
}

// TripleProduct returns the Galerkin product Pᵀ·A·P used to build coarse
// operators in algebraic multigrid.
func TripleProduct(p, a *CSR) *CSR {
	return Mul(Mul(p.Transpose(), a), p)
}

// Scale multiplies all stored values by alpha in place.
func (a *CSR) Scale(alpha float64) {
	for i := range a.Val {
		a.Val[i] *= alpha
	}
}

// Add returns A + alpha·B for structurally arbitrary CSR matrices.
func Add(a *CSR, alpha float64, b *CSR) *CSR {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("sparse: Add dimension mismatch")
	}
	bb := NewBuilder(a.Rows, a.Cols)
	bb.Reserve(a.NNZ() + b.NNZ())
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			bb.Add(i, int(a.Col[k]), a.Val[k])
		}
		for k := b.RowPtr[i]; k < b.RowPtr[i+1]; k++ {
			bb.Add(i, int(b.Col[k]), alpha*b.Val[k])
		}
	}
	return bb.Build()
}

// Identity returns the n×n identity matrix.
func Identity(n int) *CSR {
	CheckDims(n, n)
	a := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1), Col: make([]int32, n), Val: make([]float64, n)}
	for i := 0; i < n; i++ {
		a.RowPtr[i+1] = i + 1
		a.Col[i] = int32(i)
		a.Val[i] = 1
	}
	return a
}

// IsSymmetric reports whether A equals Aᵀ to within tol, element-wise.
func (a *CSR) IsSymmetric(tol float64) bool {
	if a.Rows != a.Cols {
		return false
	}
	t := a.Transpose()
	if len(t.Val) != len(a.Val) {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i] != t.RowPtr[i] {
			return false
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.Col[k] != t.Col[k] || math.Abs(a.Val[k]-t.Val[k]) > tol {
				return false
			}
		}
	}
	return true
}

// GershgorinMax returns an upper bound on the spectrum from Gershgorin disks:
// max_i (a_ii + Σ_{j≠i} |a_ij|).
func (a *CSR) GershgorinMax() float64 {
	bound := math.Inf(-1)
	for i := 0; i < a.Rows; i++ {
		var center, radius float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.Col[k]) == i {
				center = a.Val[k]
			} else {
				radius += math.Abs(a.Val[k])
			}
		}
		if v := center + radius; v > bound {
			bound = v
		}
	}
	return bound
}

// RowNNZRange returns the minimum, maximum and mean nonzeros per row.
func (a *CSR) RowNNZRange() (min, max int, mean float64) {
	if a.Rows == 0 {
		return 0, 0, 0
	}
	min = math.MaxInt
	for i := 0; i < a.Rows; i++ {
		n := a.RowPtr[i+1] - a.RowPtr[i]
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	return min, max, float64(a.NNZ()) / float64(a.Rows)
}
