package vec

import "repro/internal/par"

// sweepTile is the row count of one LC sub-tile. A chunk's LC stages run
// tile by tile so that a block written by one stage is still in cache when a
// later stage of the same tile reads it (an s=3 PIPE-PsCG tile touches 43
// vectors × 4 KiB). The dot stage is not tiled: its 4-way association is
// anchored at the chunk's first row.
const sweepTile = 512

// BlockLC is the in-place direction-block recurrence
//
//	Dst[j] ← Base[j] + Σ_k Dst[k]·B[k*s+j]
//
// with B the s×s row-major conjugation matrix: every output of a row is
// formed from the row's old values before any is stored. Terms are added in
// ascending k and zero coefficients are skipped, so each element equals the
// out-of-place "Q = K + P·B" with P the previous Dst, bit for bit. Base is
// read-only and must not overlap Dst.
type BlockLC struct {
	Dst  Multi
	Base [][]float64
	B    []float64
}

// ColumnLC is the vector update Y ← Y + Σ_j Coef[j]·Cols[j], terms in
// ascending j, zero coefficients skipped (x += Q·α, r −= AQ·α).
type ColumnLC struct {
	Y    []float64
	Cols Multi
	Coef []float64
}

// DotPair asks for out[Out] = X·Y or, with the diagonal weight W set, for
// the weighted dot Σ (W[i]·X[i])·Y[i] = ⟨D·X, Y⟩, D = diag(W): the r-space
// dot of a solver that keeps only u-space vectors under a diagonal
// preconditioner (r = D·u). A nil Y squares the weighted X, Σ (W[i]·X[i])²
// = ‖D·X‖², or X itself when W is nil too.
type DotPair struct {
	X, Y, W []float64
	Out     int
}

// rangeDot returns the pair's dot over [lo, hi) with the package's 4-way
// association.
func (d DotPair) rangeDot(lo, hi int) float64 {
	switch {
	case d.W == nil && d.Y == nil:
		return dotRange(d.X, d.X, lo, hi)
	case d.W == nil:
		return dotRange(d.X, d.Y, lo, hi)
	case d.Y == nil:
		return sqRangeW(d.X, d.W, lo, hi)
	}
	return dotRangeW(d.X, d.W, d.Y, lo, hi)
}

// dotRangeW is dotRange of the row-scaled w∘x against y.
func dotRangeW(x, w, y []float64, lo, hi int) float64 {
	var s0, s1, s2, s3 float64
	i := lo
	for ; i+4 <= hi; i += 4 {
		s0 += w[i] * x[i] * y[i]
		s1 += w[i+1] * x[i+1] * y[i+1]
		s2 += w[i+2] * x[i+2] * y[i+2]
		s3 += w[i+3] * x[i+3] * y[i+3]
	}
	for ; i < hi; i++ {
		s0 += w[i] * x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// sqRangeW is dotRange of the row-scaled w∘x against itself.
func sqRangeW(x, w []float64, lo, hi int) float64 {
	var s0, s1, s2, s3 float64
	i := lo
	for ; i+4 <= hi; i += 4 {
		t0, t1, t2, t3 := w[i]*x[i], w[i+1]*x[i+1], w[i+2]*x[i+2], w[i+3]*x[i+3]
		s0 += t0 * t0
		s1 += t1 * t1
		s2 += t2 * t2
		s3 += t3 * t3
	}
	for ; i < hi; i++ {
		t := w[i] * x[i]
		s0 += t * t
	}
	return (s0 + s1) + (s2 + s3)
}

// Sweep is one fused pass over the rows of a set of equal-length vectors: a
// single parallel region in which every chunk first runs the LC lists over
// its rows — all Blocks, then all Updates, tile by tile — and then the Dots
// over the whole chunk, on the values the LCs just wrote. Either list may be
// empty. Callers fill the exported lists (reslicing them to reuse their
// backing arrays) and call Run; the compiled plans and block scratch are
// owned by the Sweep and reused, so a warmed-up Sweep allocates nothing.
//
// Determinism. The LCs are elementwise with a fixed term order. The region is
// a par.RangeReduce, the reduction Dot itself runs: every dot is dotRange
// over the par chunk, folded over chunks in ascending order, so each entry is
// bit-identical to Dot(X, Y) evaluated after the LCs, for any worker count.
//
// Rows are independent: an LC may read what an earlier LC of the same list
// order wrote, and a Base may be a vector that a later Update overwrites. A
// Sweep must not be Run concurrently with itself.
type Sweep struct {
	Blocks  []BlockLC
	Updates []ColumnLC
	Dots    []DotPair

	// Compiled per Run: block j-columns as runs [off[t], off[t+1]) of
	// (source column, coefficient) terms, and the compacted updates.
	blockOff  []int
	blockIdx  []int
	blockCoef []float64
	upCols    [][]float64
	upCoef    []float64
	upOff     []int

	// Per-chunk scratch of the general block kernel: the old rows of one
	// block tile (maxS × sweepTile) and its compacted operand list.
	maxS    int
	oldRows []float64
	oldCols [][]float64
	chunkFn func(chunk, lo, hi int, slot []float64)
}

// Run executes the sweep over rows [0, n) and writes the dots into out
// (zeroed first; entries no DotPair names stay zero). out may be nil when
// Dots is empty.
func (sw *Sweep) Run(n int, out []float64) {
	sw.compile(n, len(out))
	if need := par.NumChunks(n) * sw.maxS * sweepTile; cap(sw.oldRows) < need {
		sw.oldRows = make([]float64, need)
		sw.oldCols = make([][]float64, need/sweepTile)
	}
	if sw.chunkFn == nil {
		sw.chunkFn = sw.chunk
	}
	par.Default().RangeReduce(out, n, sw.chunkFn)
}

// compile validates shapes and compacts the nonzero coefficients.
func (sw *Sweep) compile(n, nout int) {
	sw.blockOff = append(sw.blockOff[:0], 0)
	sw.blockIdx, sw.blockCoef = sw.blockIdx[:0], sw.blockCoef[:0]
	sw.maxS = 0
	for _, bl := range sw.Blocks {
		s := len(bl.Dst)
		sw.maxS = max(sw.maxS, s)
		if len(bl.Base) != s || len(bl.B) != s*s {
			panic("vec: Sweep block shape mismatch")
		}
		for j := 0; j < s; j++ {
			if len(bl.Dst[j]) != n || len(bl.Base[j]) != n {
				panic("vec: Sweep block length mismatch")
			}
			for k := 0; k < s; k++ {
				if beta := bl.B[k*s+j]; beta != 0 {
					sw.blockIdx = append(sw.blockIdx, k)
					sw.blockCoef = append(sw.blockCoef, beta)
				}
			}
			sw.blockOff = append(sw.blockOff, len(sw.blockIdx))
		}
	}
	sw.upOff = append(sw.upOff[:0], 0)
	sw.upCols, sw.upCoef = sw.upCols[:0], sw.upCoef[:0]
	for _, up := range sw.Updates {
		if len(up.Coef) != len(up.Cols) || len(up.Y) != n {
			panic("vec: Sweep update shape mismatch")
		}
		for j, col := range up.Cols {
			if len(col) != n {
				panic("vec: Sweep update length mismatch")
			}
			if up.Coef[j] != 0 {
				sw.upCols = append(sw.upCols, col)
				sw.upCoef = append(sw.upCoef, up.Coef[j])
			}
		}
		sw.upOff = append(sw.upOff, len(sw.upCols))
	}
	for _, d := range sw.Dots {
		if len(d.X) != n || d.Y != nil && len(d.Y) != n || d.W != nil && len(d.W) != n ||
			d.Out < 0 || d.Out >= nout {
			panic("vec: Sweep dot shape mismatch")
		}
	}
}

// chunk is the region body: LC stages tile by tile, then the dot stage.
func (sw *Sweep) chunk(c, lo, hi int, slot []float64) {
	for t := lo; t < hi; t += sweepTile {
		sw.lcTile(c, t, min(t+sweepTile, hi))
	}
	dotStage(sw.Dots, lo, hi, slot)
}

// dotStage accumulates every pair's dot over rows [lo, hi) into its slot
// entry.
func dotStage(dots []DotPair, lo, hi int, slot []float64) {
	for _, d := range dots {
		slot[d.Out] += d.rangeDot(lo, hi)
	}
}

func (sw *Sweep) lcTile(c, lo, hi int) {
	col := 0 // running index into blockOff
	for _, bl := range sw.Blocks {
		s := len(bl.Dst)
		off := sw.blockOff[col : col+s+1]
		if s == 3 && off[3]-off[0] == 9 {
			blockLC3(bl.Dst, bl.Base, bl.B, lo, hi)
		} else {
			old := sw.oldRows[c*sw.maxS*sweepTile : (c+1)*sw.maxS*sweepTile]
			cols := sw.oldCols[c*sw.maxS : (c+1)*sw.maxS]
			blockLCRows(bl.Dst, bl.Base, off, sw.blockIdx, sw.blockCoef, old, cols, lo, hi)
		}
		col += s
	}
	for ui, up := range sw.Updates {
		a, b := sw.upOff[ui], sw.upOff[ui+1]
		lcRange(up.Y, up.Y, sw.upCols[a:b], sw.upCoef[a:b], lo, hi)
	}
}

// blockLCRows is the general in-place block recurrence over rows [lo, hi),
// hi-lo ≤ sweepTile: column j's terms are (idx[t], coef[t]) for t in
// [off[j], off[j+1]). It snapshots the block's old rows into old (s columns
// of sweepTile) and forms each column from the snapshot with the per-column
// kernel; cols is scratch for the compacted operand list.
func blockLCRows(dst Multi, base [][]float64, off, idx []int, coef []float64, old []float64, cols [][]float64, lo, hi int) {
	s, w := len(dst), hi-lo
	for k := 0; k < s; k++ {
		copy(old[k*sweepTile:k*sweepTile+w], dst[k][lo:hi])
	}
	for j := 0; j < s; j++ {
		cols = cols[:0]
		for t := off[j]; t < off[j+1]; t++ {
			cols = append(cols, old[idx[t]*sweepTile:idx[t]*sweepTile+w])
		}
		lcRange(dst[j][lo:hi], base[j][lo:hi], cols, coef[off[j]:off[j+1]], 0, w)
	}
}

// blockLC3 is blockLCRows for s = 3 (the paper's default) with no zero
// coefficient — all nine terms present — without the snapshot: worth 18 % of
// a PIPE-PsCG solve on the benchmark's solve_vector (CHANGES.md, PR 13).
func blockLC3(dst Multi, base [][]float64, b []float64, lo, hi int) {
	b00, b01, b02 := b[0], b[1], b[2]
	b10, b11, b12 := b[3], b[4], b[5]
	b20, b21, b22 := b[6], b[7], b[8]
	d0 := dst[0][lo:hi]
	d1 := dst[1][lo:hi][:len(d0)]
	d2 := dst[2][lo:hi][:len(d0)]
	k0 := base[0][lo:hi][:len(d0)]
	k1 := base[1][lo:hi][:len(d0)]
	k2 := base[2][lo:hi][:len(d0)]
	for i := range d0 {
		o0, o1, o2 := d0[i], d1[i], d2[i]
		d0[i] = k0[i] + b00*o0 + b10*o1 + b20*o2
		d1[i] = k1[i] + b01*o0 + b11*o1 + b21*o2
		d2[i] = k2[i] + b02*o0 + b12*o1 + b22*o2
	}
}

// runDots is a dots-only sweep for the package's one-shot dot kernels.
func runDots(n int, out []float64, dots []DotPair) {
	par.Default().RangeReduce(out, n, func(_, lo, hi int, slot []float64) {
		dotStage(dots, lo, hi, slot)
	})
}
