package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
)

// The reference below is the per-kernel formulation the sweep replaced, kept
// as test code: out-of-place block LCs against a separate "previous" block
// (InitAddScaledBlock), one full-length pass per column update
// (AccumulateColumns / SubtractColumns), and one Dot per payload entry.

// refInitAddScaledBlock computes dst[j] = base[j] + Σ_k p[k]·b[k*s+j].
func refInitAddScaledBlock(dst Multi, base [][]float64, p Multi, b []float64) {
	s := len(dst)
	for j := 0; j < s; j++ {
		var cols [][]float64
		var coef []float64
		for k := 0; k < s; k++ {
			if beta := b[k*s+j]; beta != 0 {
				cols = append(cols, p[k])
				coef = append(coef, beta)
			}
		}
		lcRange(dst[j], base[j], cols, coef, 0, len(dst[j]))
	}
}

// refColumns computes y += sign·Q·a.
func refColumns(y []float64, q Multi, a []float64, sign float64) {
	pl := planVector(q, a, sign)
	lcRange(y, y, pl.cols, pl.coef, 0, len(y))
}

// sweepState is the vector state of one pipelined preconditioned s-step
// outer iteration (the largest sweep the solvers issue).
type sweepState struct {
	s, n       int
	x          []float64
	powU, powR [][]float64
	qU         Multi // previous directions in, new directions out
	aqU, aqR   []Multi
}

func newSweepState(rng *rand.Rand, n, s int) *sweepState {
	st := &sweepState{s: s, n: n, x: randVec(rng, n), qU: randMulti(rng, n, s)}
	for j := 0; j <= 2*s; j++ {
		st.powU = append(st.powU, randVec(rng, n))
		st.powR = append(st.powR, randVec(rng, n))
	}
	for k := 0; k <= s; k++ {
		st.aqU = append(st.aqU, randMulti(rng, n, s))
		st.aqR = append(st.aqR, randMulti(rng, n, s))
	}
	return st
}

func (st *sweepState) clone() *sweepState {
	c := &sweepState{s: st.s, n: st.n, x: append([]float64(nil), st.x...), qU: st.qU.Clone()}
	for j := range st.powU {
		c.powU = append(c.powU, append([]float64(nil), st.powU[j]...))
		c.powR = append(c.powR, append([]float64(nil), st.powR[j]...))
	}
	for k := range st.aqU {
		c.aqU = append(c.aqU, st.aqU[k].Clone())
		c.aqR = append(c.aqR, st.aqR[k].Clone())
	}
	return c
}

// payload layout of the tests: 2s moments, s×s cross-Gram, s Pᵀr, 2 norms.
func (st *sweepState) payloadLen() int { return 2*st.s + st.s*st.s + st.s + 2 }

// refOuter advances st with the per-kernel formulation and returns the dots.
func (st *sweepState) refOuter(b, alpha, xAlpha []float64, advance bool) []float64 {
	s, n := st.s, st.n
	pU := st.qU
	st.qU = NewMulti(n, s)
	refInitAddScaledBlock(st.qU, st.powU[:s], pU, b)
	for k := range st.aqU {
		apU, apR := st.aqU[k], st.aqR[k]
		st.aqU[k], st.aqR[k] = NewMulti(n, s), NewMulti(n, s)
		refInitAddScaledBlock(st.aqU[k], st.powU[k+1:k+1+s], apU, b)
		refInitAddScaledBlock(st.aqR[k], st.powR[k+1:k+1+s], apR, b)
	}
	refColumns(st.x, st.qU, xAlpha, 1)
	if advance {
		for k := range st.aqU {
			refColumns(st.powU[k], st.aqU[k], alpha, -1)
			refColumns(st.powR[k], st.aqR[k], alpha, -1)
		}
	}
	return st.refDots()
}

func (st *sweepState) refDots() []float64 {
	s := st.s
	out := make([]float64, 0, st.payloadLen())
	for m := 0; m < 2*s; m++ {
		out = append(out, Dot(st.powU[m/2], st.powR[m-m/2]))
	}
	for k := 0; k < s; k++ {
		for j := 0; j < s; j++ {
			out = append(out, Dot(st.aqR[0][k], st.powU[j]))
		}
	}
	for j := 0; j < s; j++ {
		out = append(out, Dot(st.powR[0], st.qU[j]))
	}
	return append(out, Dot(st.powU[0], st.powU[0]), Dot(st.powR[0], st.powR[0]))
}

// queue fills sw the way krylov.sstepState does.
func (st *sweepState) queue(sw *Sweep, b, negAlpha, xAlpha []float64, lcs, advance, dots bool) {
	s := st.s
	sw.Blocks, sw.Updates, sw.Dots = sw.Blocks[:0], sw.Updates[:0], sw.Dots[:0]
	if lcs {
		sw.Blocks = append(sw.Blocks, BlockLC{Dst: st.qU, Base: st.powU[:s], B: b})
		sw.Updates = append(sw.Updates, ColumnLC{Y: st.x, Cols: st.qU, Coef: xAlpha})
		for k := range st.aqU {
			sw.Blocks = append(sw.Blocks,
				BlockLC{Dst: st.aqU[k], Base: st.powU[k+1 : k+1+s], B: b},
				BlockLC{Dst: st.aqR[k], Base: st.powR[k+1 : k+1+s], B: b})
			if advance {
				sw.Updates = append(sw.Updates,
					ColumnLC{Y: st.powU[k], Cols: st.aqU[k], Coef: negAlpha},
					ColumnLC{Y: st.powR[k], Cols: st.aqR[k], Coef: negAlpha})
			}
		}
	}
	if !dots {
		return
	}
	for m := 0; m < 2*s; m++ {
		sw.Dots = append(sw.Dots, DotPair{X: st.powU[m/2], Y: st.powR[m-m/2], Out: m})
	}
	for k := 0; k < s; k++ {
		for j := 0; j < s; j++ {
			sw.Dots = append(sw.Dots, DotPair{X: st.aqR[0][k], Y: st.powU[j], Out: 2*s + k*s + j})
		}
	}
	for j := 0; j < s; j++ {
		sw.Dots = append(sw.Dots, DotPair{X: st.powR[0], Y: st.qU[j], Out: 2*s + s*s + j})
	}
	o := 2*s + s*s + s
	sw.Dots = append(sw.Dots,
		DotPair{X: st.powU[0], Y: st.powU[0], Out: o},
		DotPair{X: st.powR[0], Y: st.powR[0], Out: o + 1})
}

// queueOneSpace fills sw with the one-space form of the same outer
// iteration, the way krylov.sstepState does under a diagonal preconditioner
// M = diag(d): only the u-space LCs, and every r-space operand of the payload
// a d-weighted dot of u-space vectors.
func (st *sweepState) queueOneSpace(sw *Sweep, b, negAlpha, xAlpha, d []float64) {
	s := st.s
	sw.Blocks, sw.Updates, sw.Dots = sw.Blocks[:0], sw.Updates[:0], sw.Dots[:0]
	sw.Blocks = append(sw.Blocks, BlockLC{Dst: st.qU, Base: st.powU[:s], B: b})
	sw.Updates = append(sw.Updates, ColumnLC{Y: st.x, Cols: st.qU, Coef: xAlpha})
	for k := range st.aqU {
		sw.Blocks = append(sw.Blocks, BlockLC{Dst: st.aqU[k], Base: st.powU[k+1 : k+1+s], B: b})
		sw.Updates = append(sw.Updates, ColumnLC{Y: st.powU[k], Cols: st.aqU[k], Coef: negAlpha})
	}
	for m := 0; m < 2*s; m++ {
		sw.Dots = append(sw.Dots, DotPair{X: st.powU[m-m/2], W: d, Y: st.powU[m/2], Out: m})
	}
	for k := 0; k < s; k++ {
		for j := 0; j < s; j++ {
			sw.Dots = append(sw.Dots, DotPair{X: st.aqU[0][k], W: d, Y: st.powU[j], Out: 2*s + k*s + j})
		}
	}
	for j := 0; j < s; j++ {
		sw.Dots = append(sw.Dots, DotPair{X: st.powU[0], W: d, Y: st.qU[j], Out: 2*s + s*s + j})
	}
	o := 2*s + s*s + s
	sw.Dots = append(sw.Dots,
		DotPair{X: st.powU[0], Y: st.powU[0], Out: o},
		DotPair{X: st.powU[0], W: d, Out: o + 1})
}

// touchedBytes is what one run of sw must move through memory at least:
// every distinct vector it reads, and every one it writes, once.
func touchedBytes(sw *Sweep, n int) int64 {
	reads, writes := map[*float64]bool{}, map[*float64]bool{}
	add := func(set map[*float64]bool, vs ...[]float64) {
		for _, v := range vs {
			if v != nil {
				set[&v[0]] = true
			}
		}
	}
	for _, bl := range sw.Blocks {
		add(reads, bl.Dst...)
		add(reads, bl.Base...)
		add(writes, bl.Dst...)
	}
	for _, up := range sw.Updates {
		add(reads, up.Y)
		add(reads, up.Cols...)
		add(writes, up.Y)
	}
	for _, d := range sw.Dots {
		add(reads, d.X, d.Y, d.W)
	}
	return int64(8 * n * (len(reads) + len(writes)))
}

func bitsEqual(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func (st *sweepState) diff(ref *sweepState) string {
	if i := bitsEqual(st.x, ref.x); i >= 0 {
		return fmt.Sprintf("x[%d]", i)
	}
	for j := range st.powU {
		if i := bitsEqual(st.powU[j], ref.powU[j]); i >= 0 {
			return fmt.Sprintf("powU[%d][%d]", j, i)
		}
		if i := bitsEqual(st.powR[j], ref.powR[j]); i >= 0 {
			return fmt.Sprintf("powR[%d][%d]", j, i)
		}
	}
	for j := 0; j < st.s; j++ {
		if i := bitsEqual(st.qU[j], ref.qU[j]); i >= 0 {
			return fmt.Sprintf("qU[%d][%d]", j, i)
		}
		for k := range st.aqU {
			if i := bitsEqual(st.aqU[k][j], ref.aqU[k][j]); i >= 0 {
				return fmt.Sprintf("aqU[%d][%d][%d]", k, j, i)
			}
			if i := bitsEqual(st.aqR[k][j], ref.aqR[k][j]); i >= 0 {
				return fmt.Sprintf("aqR[%d][%d][%d]", k, j, i)
			}
		}
	}
	return ""
}

// TestSweepMatchesPerKernelReference: the fused sweep — in-place blocks,
// tiled LCs, dots on the freshly written rows — equals the per-kernel
// formulation to the bit on every vector and every payload entry, for dense,
// partly-zero and all-zero B (the first outer iteration) and a zero step
// entry, across chunk-boundary sizes and pool sizes; so do its LC-only
// (blocking variants, residual replacement) and dots-only (bootstrap) forms.
func TestSweepMatchesPerKernelReference(t *testing.T) {
	defer par.SetWorkers(0)
	rng := rand.New(rand.NewSource(13))
	var sw Sweep
	for _, n := range []int{1, 3, 511, 512, 513, 4096, 4097, 110592} {
		for s := 1; s <= 6; s++ {
			big := n == 110592 // 48³, the benchmark's size: 27 chunks
			if big && (raceEnabled || s != 3 && s != 4) {
				continue // one unrolled and one general kernel; 4097 covers the races
			}
			init := newSweepState(rng, n, s)
			alpha, xAlpha := randVec(rng, s), randVec(rng, s)
			negAlpha := make([]float64, s)
			for _, kind := range []string{"dense", "partly-zero", "zero"} {
				b := randVec(rng, s*s)
				switch kind {
				case "partly-zero":
					b[rng.Intn(s*s)] = 0
					b[rng.Intn(s*s)] = 0
					alpha[s-1], xAlpha[s-1] = 0, 0
				case "zero":
					b = make([]float64, s*s)
				}
				for l := range alpha {
					negAlpha[l] = -alpha[l]
				}
				for _, advance := range []bool{true, false} {
					par.SetWorkers(1)
					ref := init.clone()
					want := ref.refOuter(b, alpha, xAlpha, advance)
					for _, w := range []int{1, 2, 4} {
						par.SetWorkers(w)
						name := fmt.Sprintf("n=%d s=%d B=%s advance=%v w=%d", n, s, kind, advance, w)

						// One sweep: LCs and dots together.
						got := init.clone()
						out := make([]float64, got.payloadLen())
						got.queue(&sw, b, negAlpha, xAlpha, true, advance, true)
						sw.Run(n, out)
						if d := got.diff(ref); d != "" {
							t.Fatalf("%s: fused sweep differs at %s", name, d)
						}
						if i := bitsEqual(out, want); i >= 0 {
							t.Fatalf("%s: fused dot %d = %x, want %x", name, i, out[i], want[i])
						}

						// Two sweeps: LC-only, then dots-only.
						got = init.clone()
						got.queue(&sw, b, negAlpha, xAlpha, true, advance, false)
						sw.Run(n, nil)
						if d := got.diff(ref); d != "" {
							t.Fatalf("%s: LC-only sweep differs at %s", name, d)
						}
						got.queue(&sw, nil, nil, nil, false, false, true)
						for i := range out {
							out[i] = math.NaN()
						}
						sw.Run(n, out)
						if i := bitsEqual(out, want); i >= 0 {
							t.Fatalf("%s: dots-only %d = %x, want %x", name, i, out[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestSweepWeightedDots: a weighted pair is the plain dot of the row-scaled
// vector W∘X, and a nil Y squares it, bit for bit — alone, beside plain
// pairs, in groups that share one X (1, 2, 3, 4 and 7 Ys, weighted and
// plain pairs on the same X), and after the LCs of a one-space sweep —
// across tile-, lane- and chunk-boundary sizes and pool sizes.
func TestSweepWeightedDots(t *testing.T) {
	defer par.SetWorkers(0)
	rng := rand.New(rand.NewSource(17))
	var sw Sweep
	for _, n := range []int{1, 3, 511, 512, 513, 4096, 4097, 20000} {
		x, y, w := randVec(rng, n), randVec(rng, n), randVec(rng, n)
		wx := make([]float64, n)
		for i := range wx {
			wx[i] = w[i] * x[i]
		}
		for _, workers := range []int{1, 2, 4} {
			par.SetWorkers(workers)
			sw.Dots = append(sw.Dots[:0],
				DotPair{X: x, W: w, Y: y, Out: 0},
				DotPair{X: x, W: w, Out: 1},
				DotPair{X: x, Y: y, Out: 2},
				DotPair{X: x, Out: 3})
			out := make([]float64, 4)
			sw.Run(n, out)
			want := []float64{Dot(wx, y), Dot(wx, wx), Dot(x, y), Dot(x, x)}
			if i := bitsEqual(out, want); i >= 0 {
				t.Fatalf("n=%d w=%d: pair %d = %x, want %x", n, workers, i, out[i], want[i])
			}
		}
	}

	// Shared operands: one X against k Ys through two weights and none,
	// with the squares of each, interleaved so the groups fill out of order.
	for _, n := range []int{1, 3, 511, 512, 513, 4097} {
		x, w1, w2 := randVec(rng, n), randVec(rng, n), randVec(rng, n)
		for _, k := range []int{1, 2, 3, 4, 7} {
			ys := randMulti(rng, n, k)
			var want []float64
			sw.Dots = sw.Dots[:0]
			add := func(w, y []float64) {
				xs := x
				if w != nil {
					xs = make([]float64, n)
					for i := range xs {
						xs[i] = w[i] * x[i]
					}
				}
				ref := y
				if ref == nil {
					ref = xs
				}
				sw.Dots = append(sw.Dots, DotPair{X: x, W: w, Y: y, Out: len(want)})
				want = append(want, Dot(xs, ref))
			}
			for j := range ys {
				add(w1, ys[j])
				add(nil, ys[j])
				if j%2 == 0 {
					add(w2, ys[j])
				}
			}
			add(w1, nil)
			add(nil, nil)
			add(nil, x)
			for _, workers := range []int{1, 2, 4} {
				par.SetWorkers(workers)
				out := make([]float64, len(want))
				sw.Run(n, out)
				if i := bitsEqual(out, want); i >= 0 {
					t.Fatalf("n=%d k=%d w=%d: shared-X pair %d = %x, want %x", n, k, workers, i, out[i], want[i])
				}
			}
		}
	}

	// After the LCs: each weighted payload entry equals Dot of the scaled
	// operand on the vectors as the one-space LCs leave them.
	n, s := 4097, 3
	st := newSweepState(rng, n, s)
	b, alpha, xAlpha, d := randVec(rng, s*s), randVec(rng, s), randVec(rng, s), randVec(rng, n)
	st.queueOneSpace(&sw, b, alpha, xAlpha, d)
	out := make([]float64, st.payloadLen())
	sw.Run(n, out)
	for _, p := range sw.Dots {
		x := p.X
		if p.W != nil {
			x = make([]float64, n)
			for i := range x {
				x[i] = p.W[i] * p.X[i]
			}
		}
		y := p.Y
		if y == nil {
			y = x
		}
		if want := Dot(x, y); math.Float64bits(out[p.Out]) != math.Float64bits(want) {
			t.Fatalf("one-space payload entry %d = %x, want %x", p.Out, out[p.Out], want)
		}
	}
}

// TestSweepShapePanics: mismatched operands are programming errors.
func TestSweepShapePanics(t *testing.T) {
	v := func(n int) []float64 { return make([]float64, n) }
	cases := []Sweep{
		{Blocks: []BlockLC{{Dst: NewMulti(4, 2), Base: [][]float64{v(4)}, B: v(4)}}},
		{Blocks: []BlockLC{{Dst: NewMulti(4, 2), Base: NewMulti(4, 2), B: v(3)}}},
		{Blocks: []BlockLC{{Dst: NewMulti(4, 1), Base: NewMulti(5, 1), B: v(1)}}},
		{Updates: []ColumnLC{{Y: v(4), Cols: NewMulti(4, 2), Coef: v(1)}}},
		{Updates: []ColumnLC{{Y: v(3), Cols: NewMulti(4, 1), Coef: v(1)}}},
		{Dots: []DotPair{{X: v(4), Y: v(3)}}},
		{Dots: []DotPair{{X: v(4), Y: v(4), Out: 1}}},
		{Dots: []DotPair{{X: v(4), Y: v(4), W: v(3)}}},
	}
	for i := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			cases[i].Run(4, v(1))
		}()
	}
}

// TestSweepSteadyStateAllocFree: a warmed-up Sweep owns its plans, its
// reduction scratch and its region body, in the twin-space form and in the
// one-space form with weighted dots.
func TestSweepSteadyStateAllocFree(t *testing.T) {
	defer par.SetWorkers(0)
	rng := rand.New(rand.NewSource(5))
	n, s := 3*par.Grain()+5, 3
	st := newSweepState(rng, n, s)
	b, negAlpha, xAlpha := randVec(rng, s*s), randVec(rng, s), randVec(rng, s)
	for i := range b {
		b[i] *= 0.1 // keep the repeated in-place recurrence bounded
	}
	d := randVec(rng, n)
	out := make([]float64, st.payloadLen())
	var sw Sweep
	for _, w := range []int{1, 2} {
		par.SetWorkers(w)
		for _, oneSpace := range []bool{false, true} {
			run := func() {
				if oneSpace {
					st.queueOneSpace(&sw, b, negAlpha, xAlpha, d)
				} else {
					st.queue(&sw, b, negAlpha, xAlpha, true, true, true)
				}
				sw.Run(n, out)
			}
			run()
			if a := testing.AllocsPerRun(5, run); a != 0 {
				t.Fatalf("workers=%d one-space=%v: %v allocations per sweep, want 0", w, oneSpace, a)
			}
		}
	}
}

// BenchmarkSStepSweep times the steady-state PIPE-PsCG sweep (s=3, 48³ rows:
// the solve_vector workload's vector work per outer iteration) in twin space
// and in one space, the form a diagonal preconditioner runs. The reported
// MB/s is the bytes the sweep must touch — each distinct vector it reads and
// each it writes, once (twin 42 + 36 vectors, one space 24 + 20) — per
// second: its distance from the machine's triad bandwidth is the headroom a
// faster loop could still win.
func BenchmarkSStepSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n, s := 110592, 3
	st := newSweepState(rng, n, s)
	coef, negAlpha, xAlpha := randVec(rng, s*s), randVec(rng, s), randVec(rng, s)
	for i := range coef {
		coef[i] *= 0.1
		negAlpha[i%s] *= 0.1
	}
	d := make([]float64, n)
	for i := range d {
		d[i] = 1 + 0.01*rng.Float64() // keep the repeated recurrence bounded
	}
	out := make([]float64, st.payloadLen())
	for _, form := range []string{"twin", "one-space"} {
		b.Run(form, func(b *testing.B) {
			var sw Sweep
			queue := func() {
				if form == "twin" {
					st.queue(&sw, coef, negAlpha, xAlpha, true, true, true)
				} else {
					st.queueOneSpace(&sw, coef, negAlpha, xAlpha, d)
				}
			}
			queue()
			b.SetBytes(touchedBytes(&sw, n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				queue()
				sw.Run(n, out)
			}
		})
	}
}
