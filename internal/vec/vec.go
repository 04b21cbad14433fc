// Package vec implements the dense vector and block-vector (multivector)
// kernels of the solver stack: dot products, vector-multiply-adds (the VMA
// kernel of the paper), and the recurrence linear combinations (LCs) that the
// s-step methods use to update direction blocks, Q = K + P·B and x += Q·a.
//
// Functions operate on plain []float64 slices over a caller-chosen index
// range so the same kernels serve the sequential runtime (range = whole
// vector) and the SPMD runtime (range = the rank's rows).
//
// Threading and determinism. The kernels run on the shared internal/par
// worker pool: long vectors are split into chunks whose geometry depends
// only on the vector length, reductions (Dot, GramLocal, DotsAgainst) fold
// per-chunk partials in ascending chunk order, and the inner loops are 4-way
// unrolled with a fixed re-association. Results are therefore bit-identical
// across runs and across worker counts (including the serial fast path,
// which walks the same chunks in the same order). The s-step methods' whole
// per-iteration vector work — direction-block recurrences, x and residual
// updates, and the reduction payload's dots — runs as one Sweep (sweep.go):
// a single parallel region that reads every vector once. Callers' Charge()
// accounting is unchanged — the pool alters wall-clock time, not counted
// work.
package vec

import (
	"math"

	"repro/internal/par"
)

// dotRange returns Σ x[i]·y[i] over [lo, hi), 4-way unrolled. The partial
// accumulators are combined as (s0+s1)+(s2+s3) — a fixed association, so the
// bit pattern depends only on the index range.
func dotRange(x, y []float64, lo, hi int) float64 {
	var s0, s1, s2, s3 float64
	i := lo
	for ; i+4 <= hi; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < hi; i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// axpyRange computes y[i] += a·x[i] over [lo, hi), 4-way unrolled.
func axpyRange(y []float64, a float64, x []float64, lo, hi int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < hi; i++ {
		y[i] += a * x[i]
	}
}

// DotRange returns Σ x[i]·y[i] over [lo, hi) with the package's fixed 4-way
// unrolled association. Exported for operator kernels (sparse, grid) that
// fold dot partials over their own chunk geometry and must match the fold
// this package uses bit for bit.
func DotRange(x, y []float64, lo, hi int) float64 {
	return dotRange(x, y, lo, hi)
}

// Dot returns Σ x[i]·y[i], chunk-parallel with a fixed-order reduction.
func Dot(x, y []float64) float64 {
	var out [1]float64
	par.Default().RangeReduce(out[:], len(x), func(_, lo, hi int, o []float64) {
		o[0] += dotRange(x, y, lo, hi)
	})
	return out[0]
}

// DotPairs computes dst[k] = xs[k]·ys[k] for every pair in one chunk sweep —
// the same chunk geometry and fold order as len(dst) separate Dot calls, so
// each entry is bit-identical to Dot(xs[k], ys[k]), but all pairs share one
// pass over the index space (one scheduling round instead of len(dst)).
func DotPairs(dst []float64, xs, ys [][]float64) {
	if len(xs) != len(dst) || len(ys) != len(dst) {
		panic("vec: DotPairs length mismatch")
	}
	if len(dst) == 0 {
		return
	}
	dots := make([]DotPair, len(dst))
	for k := range dots {
		dots[k] = DotPair{X: xs[k], Y: ys[k], Out: k}
	}
	runDots(len(xs[0]), dst, dots)
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// Axpy computes y += a·x.
func Axpy(y []float64, a float64, x []float64) {
	par.Default().Range(len(x), func(lo, hi int) {
		axpyRange(y, a, x, lo, hi)
	})
}

// Axpby computes y = a·x + b·y.
func Axpby(y []float64, a float64, x []float64, b float64) {
	par.Default().Range(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] = a*x[i] + b*y[i]
		}
	})
}

// Copy copies src into dst (lengths must match).
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic("vec: Copy length mismatch")
	}
	copy(dst, src)
}

// Scale multiplies x by a in place.
func Scale(x []float64, a float64) {
	par.Default().Range(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] *= a
		}
	})
}

// Zero clears x.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Sub computes dst = x - y.
func Sub(dst, x, y []float64) {
	par.Default().Range(len(dst), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = x[i] - y[i]
		}
	})
}

// MulInto computes dst[i] = x[i]·w[i] — the diagonal-scaling kernel of the
// Jacobi and Chebyshev preconditioners. dst may alias x.
func MulInto(dst, x, w []float64) {
	par.Default().Range(len(dst), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = x[i] * w[i]
		}
	})
}

// MaxAbs returns max_i |x[i]| (the infinity norm).
func MaxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Multi is a block of s vectors of equal length n (an N×s multivector).
// Columns are stored as separate contiguous slices.
type Multi [][]float64

// NewMulti allocates an n×s multivector of zeros.
func NewMulti(n, s int) Multi {
	m := make(Multi, s)
	backing := make([]float64, n*s)
	for j := range m {
		m[j] = backing[j*n : (j+1)*n : (j+1)*n]
	}
	return m
}

// S returns the number of columns.
func (m Multi) S() int { return len(m) }

// N returns the vector length (0 for an empty block).
func (m Multi) N() int {
	if len(m) == 0 {
		return 0
	}
	return len(m[0])
}

// Clone deep-copies the block.
func (m Multi) Clone() Multi {
	c := NewMulti(m.N(), m.S())
	for j := range m {
		copy(c[j], m[j])
	}
	return c
}

// Zero clears all columns.
func (m Multi) Zero() {
	for j := range m {
		Zero(m[j])
	}
}

// CopyFrom copies src's columns into m.
func (m Multi) CopyFrom(src Multi) {
	if len(m) != len(src) {
		panic("vec: Multi.CopyFrom column count mismatch")
	}
	for j := range m {
		Copy(m[j], src[j])
	}
}

// sameSlice reports whether a and b share the same backing start.
func sameSlice(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// lcRange computes dst[i] = src[i] + Σ_t coef[t]·cols[t][i] for i in
// [lo, hi) — one fused read+write sweep per column, replacing the copy +
// s-axpy formulation. src may alias dst. The term order is ascending t, the
// same association the axpy formulation used, so results match the old
// kernels bit for bit. Term counts up to 3 (s = 3 is the paper's default)
// are specialized.
func lcRange(dst, src []float64, cols [][]float64, coef []float64, lo, hi int) {
	switch len(cols) {
	case 0:
		if !sameSlice(dst, src) {
			copy(dst[lo:hi], src[lo:hi])
		}
	case 1:
		c0, a0 := cols[0], coef[0]
		for i := lo; i < hi; i++ {
			dst[i] = src[i] + a0*c0[i]
		}
	case 2:
		c0, a0 := cols[0], coef[0]
		c1, a1 := cols[1], coef[1]
		for i := lo; i < hi; i++ {
			dst[i] = src[i] + a0*c0[i] + a1*c1[i]
		}
	case 3:
		c0, a0 := cols[0], coef[0]
		c1, a1 := cols[1], coef[1]
		c2, a2 := cols[2], coef[2]
		for i := lo; i < hi; i++ {
			dst[i] = src[i] + a0*c0[i] + a1*c1[i] + a2*c2[i]
		}
	default:
		for i := lo; i < hi; i++ {
			acc := src[i]
			for t, c := range cols {
				acc += coef[t] * c[i]
			}
			dst[i] = acc
		}
	}
}

// lcPlan is the compacted form of one destination column's linear
// combination: only the nonzero-coefficient source columns.
type lcPlan struct {
	cols [][]float64
	coef []float64
}

// planVector compacts the coefficient vector a (scaled by sign) against the
// columns of q.
func planVector(q Multi, a []float64, sign float64) lcPlan {
	var pl lcPlan
	for j, col := range q {
		if a[j] != 0 {
			pl.cols = append(pl.cols, col)
			pl.coef = append(pl.coef, sign*a[j])
		}
	}
	return pl
}

// runColumnLCs executes a set of per-column fused LCs (dst[j] = src[j] +
// plan[j]) in one parallel region: every chunk sweeps all columns over its
// row range, keeping the source blocks cache-hot across columns.
func runColumnLCs(dst, src [][]float64, plans []lcPlan, n int) {
	par.Default().Range(n, func(lo, hi int) {
		for j := range plans {
			lcRange(dst[j], src[j], plans[j].cols, plans[j].coef, lo, hi)
		}
	})
}

// PipelinedUpdate computes dst[j] = src[j] - m[j]·a for each column j, where
// m[j] is itself a multivector (the paper's P[j] = Q[j] - AQm[j]·α update,
// Alg. 5 lines 22-24), fused to one sweep per column.
func PipelinedUpdate(dst, src Multi, m []Multi, a []float64) {
	if len(dst) != len(src) || len(m) < len(dst) {
		panic("vec: PipelinedUpdate shape mismatch")
	}
	if len(dst) == 0 {
		return
	}
	plans := make([]lcPlan, len(dst))
	for j := range dst {
		if len(a) != len(m[j]) {
			panic("vec: PipelinedUpdate shape mismatch")
		}
		plans[j] = planVector(m[j], a, -1)
	}
	runColumnLCs(dst, src, plans, dst.N())
}

// GramLocal computes the s×s local Gram block G[k*s+j] = p[k]·q[j] over the
// slices' index range, chunk-parallel with a fixed-order reduction. When p
// and q alias the same block (column for column), only the upper triangle is
// computed and the result is mirrored — the Gram matrix is symmetric.
// Callers allreduce the result across ranks.
func GramLocal(dst []float64, p, q Multi) {
	s1, s2 := len(p), len(q)
	if len(dst) != s1*s2 {
		panic("vec: GramLocal shape mismatch")
	}
	if s1 == 0 || s2 == 0 {
		return
	}
	sym := s1 == s2
	if sym {
		for k := 0; k < s1; k++ {
			if !sameSlice(p[k], q[k]) {
				sym = false
				break
			}
		}
	}
	dots := make([]DotPair, 0, s1*s2)
	for k := 0; k < s1; k++ {
		j0 := 0
		if sym {
			j0 = k
		}
		for j := j0; j < s2; j++ {
			dots = append(dots, DotPair{X: p[k], Y: q[j], Out: k*s2 + j})
		}
	}
	runDots(len(p[0]), dst, dots)
	if sym {
		for k := 1; k < s1; k++ {
			for j := 0; j < k; j++ {
				dst[k*s2+j] = dst[j*s2+k]
			}
		}
	}
}

// DotsAgainst computes dst[j] = x·q[j] for each column of q, sharing one
// parallel sweep over x across all columns.
func DotsAgainst(dst []float64, x []float64, q Multi) {
	if len(dst) != len(q) {
		panic("vec: DotsAgainst shape mismatch")
	}
	if len(q) == 0 {
		return
	}
	dots := make([]DotPair, len(q))
	for j, col := range q {
		dots[j] = DotPair{X: x, Y: col, Out: j}
	}
	runDots(len(x), dst, dots)
}

// Pack copies the columns into dst back to back, in slice order, and returns
// the packed length. It is the payload-concatenation half of the block
// solver's batched reductions: k columns' reduction buffers become one
// contiguous allreduce payload, so k collectives collapse into one. dst must
// hold the sum of the column lengths.
func Pack(dst []float64, cols [][]float64) int {
	off := 0
	for _, c := range cols {
		off += copy(dst[off:], c)
	}
	return off
}

// Unpack is the inverse of Pack: it splits src back into the columns, in
// slice order, and returns the consumed length. Each column receives exactly
// the words Pack took from it, so a Pack→reduce→Unpack round trip is
// bit-transparent per column.
func Unpack(cols [][]float64, src []float64) int {
	off := 0
	for _, c := range cols {
		off += copy(c, src[off:off+len(c)])
	}
	return off
}
