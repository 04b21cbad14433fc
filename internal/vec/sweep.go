package vec

import "repro/internal/par"

// sweepTile is the row count of one sub-tile. A chunk's stages run tile by
// tile so that a block written by one stage is still in cache when a later
// stage of the same tile reads it (an s=3 PIPE-PsCG tile touches 43 vectors
// × 4 KiB), the dots included. It is a multiple of 4, so the dots' 4-way
// lanes, carried from tile to tile, stay anchored at the chunk's first row.
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

// Sweep is one fused pass over the rows of a set of equal-length vectors: a
// single parallel region in which every chunk walks its rows tile by tile,
// running the LC lists — all Blocks, then all Updates — and then the Dots on
// the values the LCs just wrote. Either list may be empty. Callers fill the
// exported lists (reslicing them to reuse their backing arrays) and call
// Run; the compiled plans, block scratch and dot lanes are owned by the
// Sweep and reused, so a warmed-up Sweep allocates nothing.
//
// Determinism. The LCs are elementwise with a fixed term order. The region is
// a par.RangeReduce, the reduction Dot itself runs: every dot is dotRange's
// association over the par chunk — four lanes carried across the chunk's
// tiles, the len mod 4 tail into lane 0 in its last tile — folded over
// chunks in ascending order, so each entry is bit-identical to Dot(X, Y)
// evaluated after the LCs, for any worker count.
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

	// The dot stage: the pairs grouped by shared operand, and per chunk
	// every pair's four lanes.
	groups []dotGroup
	lanes  [][4]float64

	chunkFn func(chunk, lo, hi int, slot []float64)
}

// Run executes the sweep over rows [0, n) and writes the dots into out
// (zeroed first; entries no DotPair names stay zero). out may be nil when
// Dots is empty.
func (sw *Sweep) Run(n int, out []float64) {
	sw.compile(n, len(out))
	nc := par.NumChunks(n)
	if need := nc * sw.maxS * sweepTile; cap(sw.oldRows) < need {
		sw.oldRows = make([]float64, need)
		sw.oldCols = make([][]float64, need/sweepTile)
	}
	if need := nc * len(sw.Dots); cap(sw.lanes) < need {
		sw.lanes = make([][4]float64, need)
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
	sw.groups = sw.groups[:0]
	for k, d := range sw.Dots {
		if len(d.X) != n || d.Y != nil && len(d.Y) != n || d.W != nil && len(d.W) != n ||
			d.Out < 0 || d.Out >= nout {
			panic("vec: Sweep dot shape mismatch")
		}
		sw.group(k, d)
	}
}

// chunk is the region body: each tile's LC stages, then the tile's dots,
// every dot's four lanes carried from tile to tile in the chunk's scratch;
// the chunk ends by folding each dot's lanes into its slot entry, in Dots
// order.
func (sw *Sweep) chunk(c, lo, hi int, slot []float64) {
	nd := len(sw.Dots)
	lanes := sw.lanes[c*nd : (c+1)*nd]
	clear(lanes)
	for t := lo; t < hi; t += sweepTile {
		e := min(t+sweepTile, hi)
		sw.lcTile(c, t, e)
		for g := range sw.groups {
			sw.groups[g].tile(lanes, t, e)
		}
	}
	for k, d := range sw.Dots {
		l := &lanes[k]
		slot[d.Out] += (l[0] + l[1]) + (l[2] + l[3])
	}
}

// dotGroup is up to three pairs that share one operand X and weight W (the
// same backing vectors), or one nil-Y pair alone. Its kernel forms each
// row's t = W[i]·X[i] once — X[i] itself when W is nil — and adds t·Y[i]
// into every pair's lanes, t·t for the nil-Y pair: (w·x)·y is the weighted
// pair's dot term to the bit.
type dotGroup struct {
	x, w []float64
	ys   [3][]float64
	dot  [3]int // the pairs' indices into Dots, whose lanes they fill
	n    int
}

// group adds pair k to an open group with its operand, or starts one.
func (sw *Sweep) group(k int, d DotPair) {
	if d.Y != nil {
		for g := range sw.groups {
			o := &sw.groups[g]
			if o.n < 3 && o.ys[0] != nil && sameSlice(o.x, d.X) &&
				(o.w == nil && d.W == nil || sameSlice(o.w, d.W)) {
				o.ys[o.n], o.dot[o.n] = d.Y, k
				o.n++
				return
			}
		}
	}
	sw.groups = append(sw.groups, dotGroup{x: d.X, w: d.W, ys: [3][]float64{d.Y}, dot: [3]int{k}, n: 1})
}

// tile adds rows [lo, hi) of the group's pairs into their lanes.
func (g *dotGroup) tile(lanes [][4]float64, lo, hi int) {
	x := g.x[lo:hi]
	var w, y0 []float64
	if g.w != nil {
		w = g.w[lo:hi]
	}
	if g.ys[0] != nil {
		y0 = g.ys[0][lo:hi]
	}
	switch g.n {
	case 1:
		dotLanes1(&lanes[g.dot[0]], x, w, y0)
	case 2:
		dotLanes2(&lanes[g.dot[0]], &lanes[g.dot[1]], x, w, y0, g.ys[1][lo:hi])
	default:
		dotLanes3(&lanes[g.dot[0]], &lanes[g.dot[1]], &lanes[g.dot[2]], x, w, y0, g.ys[1][lo:hi], g.ys[2][lo:hi])
	}
}

// term is row i's t: w[i]·x[i], or x[i] when w is nil.
func term(x, w []float64, i int) float64 {
	if w == nil {
		return x[i]
	}
	return w[i] * x[i]
}

// dotLanes1 adds one pair's rows into its four lanes l with the package's
// dot association: row i into lane i mod 4, the len mod 4 tail into lane 0.
// Only a chunk's last tile has a tail, so the lanes stay anchored at the
// chunk's first row. The row's term is t·y, t·t when y is nil.
func dotLanes1(l *[4]float64, x, w, y []float64) {
	s0, s1, s2, s3 := l[0], l[1], l[2], l[3]
	i := 0
	switch {
	case w == nil:
		if y == nil {
			y = x
		}
		y = y[:len(x)]
		for ; i < len(x)-3; i += 4 {
			s0 += x[i] * y[i]
			s1 += x[i+1] * y[i+1]
			s2 += x[i+2] * y[i+2]
			s3 += x[i+3] * y[i+3]
		}
	case y == nil:
		w = w[:len(x)]
		for ; i < len(x)-3; i += 4 {
			t0, t1, t2, t3 := w[i]*x[i], w[i+1]*x[i+1], w[i+2]*x[i+2], w[i+3]*x[i+3]
			s0 += t0 * t0
			s1 += t1 * t1
			s2 += t2 * t2
			s3 += t3 * t3
		}
	default:
		w, y = w[:len(x)], y[:len(x)]
		for ; i < len(x)-3; i += 4 {
			s0 += w[i] * x[i] * y[i]
			s1 += w[i+1] * x[i+1] * y[i+1]
			s2 += w[i+2] * x[i+2] * y[i+2]
			s3 += w[i+3] * x[i+3] * y[i+3]
		}
	}
	for ; i < len(x); i++ {
		t := term(x, w, i)
		if y != nil {
			s0 += t * y[i]
		} else {
			s0 += t * t
		}
	}
	l[0], l[1], l[2], l[3] = s0, s1, s2, s3
}

// dotLanes2 is dotLanes1 for two Ys against one t.
func dotLanes2(la, lb *[4]float64, x, w, ya, yb []float64) {
	ya, yb = ya[:len(x)], yb[:len(x)]
	a0, a1, a2, a3 := la[0], la[1], la[2], la[3]
	b0, b1, b2, b3 := lb[0], lb[1], lb[2], lb[3]
	i := 0
	if w == nil {
		for ; i < len(x)-3; i += 4 {
			a0 += x[i] * ya[i]
			b0 += x[i] * yb[i]
			a1 += x[i+1] * ya[i+1]
			b1 += x[i+1] * yb[i+1]
			a2 += x[i+2] * ya[i+2]
			b2 += x[i+2] * yb[i+2]
			a3 += x[i+3] * ya[i+3]
			b3 += x[i+3] * yb[i+3]
		}
	} else {
		w = w[:len(x)]
		for ; i < len(x)-3; i += 4 {
			t := w[i] * x[i]
			a0 += t * ya[i]
			b0 += t * yb[i]
			t = w[i+1] * x[i+1]
			a1 += t * ya[i+1]
			b1 += t * yb[i+1]
			t = w[i+2] * x[i+2]
			a2 += t * ya[i+2]
			b2 += t * yb[i+2]
			t = w[i+3] * x[i+3]
			a3 += t * ya[i+3]
			b3 += t * yb[i+3]
		}
	}
	for ; i < len(x); i++ {
		t := term(x, w, i)
		a0 += t * ya[i]
		b0 += t * yb[i]
	}
	la[0], la[1], la[2], la[3] = a0, a1, a2, a3
	lb[0], lb[1], lb[2], lb[3] = b0, b1, b2, b3
}

// dotLanes3 is dotLanes1 for three Ys against one t.
func dotLanes3(la, lb, lc *[4]float64, x, w, ya, yb, yc []float64) {
	ya, yb, yc = ya[:len(x)], yb[:len(x)], yc[:len(x)]
	a0, a1, a2, a3 := la[0], la[1], la[2], la[3]
	b0, b1, b2, b3 := lb[0], lb[1], lb[2], lb[3]
	c0, c1, c2, c3 := lc[0], lc[1], lc[2], lc[3]
	i := 0
	if w == nil {
		for ; i < len(x)-3; i += 4 {
			a0 += x[i] * ya[i]
			b0 += x[i] * yb[i]
			c0 += x[i] * yc[i]
			a1 += x[i+1] * ya[i+1]
			b1 += x[i+1] * yb[i+1]
			c1 += x[i+1] * yc[i+1]
			a2 += x[i+2] * ya[i+2]
			b2 += x[i+2] * yb[i+2]
			c2 += x[i+2] * yc[i+2]
			a3 += x[i+3] * ya[i+3]
			b3 += x[i+3] * yb[i+3]
			c3 += x[i+3] * yc[i+3]
		}
	} else {
		w = w[:len(x)]
		for ; i < len(x)-3; i += 4 {
			t := w[i] * x[i]
			a0 += t * ya[i]
			b0 += t * yb[i]
			c0 += t * yc[i]
			t = w[i+1] * x[i+1]
			a1 += t * ya[i+1]
			b1 += t * yb[i+1]
			c1 += t * yc[i+1]
			t = w[i+2] * x[i+2]
			a2 += t * ya[i+2]
			b2 += t * yb[i+2]
			c2 += t * yc[i+2]
			t = w[i+3] * x[i+3]
			a3 += t * ya[i+3]
			b3 += t * yb[i+3]
			c3 += t * yc[i+3]
		}
	}
	for ; i < len(x); i++ {
		t := term(x, w, i)
		a0 += t * ya[i]
		b0 += t * yb[i]
		c0 += t * yc[i]
	}
	la[0], la[1], la[2], la[3] = a0, a1, a2, a3
	lb[0], lb[1], lb[2], lb[3] = b0, b1, b2, b3
	lc[0], lc[1], lc[2], lc[3] = c0, c1, c2, c3
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
	sw := Sweep{Dots: dots}
	sw.Run(n, out)
}
