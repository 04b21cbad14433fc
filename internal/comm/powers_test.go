package comm

import (
	"math"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/trace"
)

func jacobiPC(a *sparse.CSR, lo, hi int) engine.Preconditioner {
	return precond.NewJacobi(a, lo, hi)
}

// thinGrid is long enough (4×96 lines) that depth-3 plans stay profitable
// up to P=4.
func thinGrid() *sparse.CSR {
	return grid.Grid{Nx: 4, Ny: 96, Nz: 1, Stencil: grid.Star5}.Laplacian()
}

func sinVector(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i)*0.7) + 0.2
	}
	return x
}

func allocLevels(depth, n int) [][]float64 {
	v := make([][]float64, depth)
	for j := range v {
		v[j] = make([]float64, n)
	}
	return v
}

// perProductChain is the sequence the kernel replaces: scaled SpMV, then PC
// — or, with a nil dstR, the folded product M⁻¹·scale·A·u per level.
func perProductChain(e *Engine, dstR, dstU [][]float64, src []float64, scale float64) {
	if dstR == nil {
		for j := range dstU {
			e.SpMVFusedDots(dstU[j], src, scale, true, nil, nil)
			src = dstU[j]
		}
		return
	}
	for j := range dstR {
		e.SpMVFusedDots(dstR[j], src, scale, false, nil, nil)
		src = dstR[j]
		if dstU != nil {
			e.ApplyPC(dstU[j], dstR[j])
			src = dstU[j]
		}
	}
}

// powersBlock runs one depth-k block on every rank — through the kernel or
// the per-product chain — and returns rank-major [rank][level] r- and
// u-space results. With fold set (preconditioned only) no r level is kept:
// the one-space solver's call.
func powersBlock(t *testing.T, engines []*Engine, src [][]float64, depth int, precond bool, scale float64, kernel, fold bool) (rs, us [][][]float64) {
	t.Helper()
	rs = make([][][]float64, len(engines))
	us = make([][][]float64, len(engines))
	errs := RunErr(engines, func(r int, e *Engine) error {
		if !fold {
			rs[r] = allocLevels(depth, e.NLocal())
		}
		if precond {
			us[r] = allocLevels(depth, e.NLocal())
		}
		if !kernel {
			perProductChain(e, rs[r], us[r], src[r], scale)
		} else if !e.SpMVPowers(rs[r], us[r], src[r], scale) {
			t.Errorf("rank %d: kernel declined", r)
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return rs, us
}

func sameLevels(t *testing.T, id string, got, want [][][]float64) {
	t.Helper()
	for r := range want {
		for j := range want[r] {
			for i := range want[r][j] {
				if math.Float64bits(got[r][j][i]) != math.Float64bits(want[r][j][i]) {
					t.Fatalf("%s rank %d level %d row %d: %g want %g", id, r, j+1, i, got[r][j][i], want[r][j][i])
				}
			}
		}
	}
}

// TestSpMVPowersMatchesPerProduct: the kernel's block equals the chain of
// scaled products and preconditioner applications to the bit, at one halo
// exchange instead of depth, with every other counter unchanged — and a
// preconditioned block with the PC folded into the products (nil dstR)
// leaves the u levels and the counters bit-identical to the unfolded block,
// through the kernel and through the per-product chain alike.
func TestSpMVPowersMatchesPerProduct(t *testing.T) {
	a := thinGrid()
	x := sinVector(a.Rows)
	for _, p := range []int{2, 3, 4} {
		pt := partition.RowBlock(a.Rows, p)
		xs := Scatter(pt, x)
		for _, pcf := range []PCFactory{nil, jacobiPC} {
			for _, precond := range []bool{false, true} {
				for _, scale := range []float64{1, 0.37} {
					const depth = 3
					on := NewEngines(NewFabric(p, 0), a, pt, pcf)
					off := NewEngines(NewFabric(p, 0), a, pt, pcf)
					gotR, gotU := powersBlock(t, on, xs, depth, precond, scale, true, false)
					wantR, wantU := powersBlock(t, off, xs, depth, precond, scale, false, false)
					sameLevels(t, "r", gotR, wantR)
					if precond {
						sameLevels(t, "u", gotU, wantU)
						for _, kernel := range []bool{true, false} {
							folded := NewEngines(NewFabric(p, 0), a, pt, pcf)
							_, foldU := powersBlock(t, folded, xs, depth, precond, scale, kernel, true)
							sameLevels(t, "u (folded)", foldU, wantU)
							ref := off
							if kernel {
								ref = on
							}
							for r := range folded {
								if c, w := *folded[r].Counters(), *ref[r].Counters(); c != w {
									t.Fatalf("p=%d rank %d kernel=%v: folded counters differ: %+v vs %+v", p, r, kernel, c, w)
								}
							}
						}
					}
					for r := range on {
						c, w := *on[r].Counters(), *off[r].Counters()
						if c.HaloExchanges != 1 || w.HaloExchanges != depth {
							t.Fatalf("p=%d rank %d: halo exchanges %d vs %d", p, r, c.HaloExchanges, w.HaloExchanges)
						}
						if c.SpMVFlops <= w.SpMVFlops {
							t.Fatalf("p=%d rank %d: redundant rows must show in SpMVFlops", p, r)
						}
						c.HaloExchanges, c.SpMVFlops, w.HaloExchanges, w.SpMVFlops = 0, 0, 0, 0
						if c != w {
							t.Fatalf("p=%d rank %d: counters differ: %+v vs %+v", p, r, c, w)
						}
					}
				}
			}
		}
	}
}

// TestSpMVPowersBoxStencil: the kernel's ghost-row runs and rank-local rows
// through the matrix-free Box125 operator give the assembled matrix's bits,
// folded and unfolded, on a column of 5×6 planes deep enough to engage.
func TestSpMVPowersBoxStencil(t *testing.T) {
	g := grid.Grid{Nx: 5, Ny: 6, Nz: 48, Stencil: grid.Box125}
	a := g.Laplacian()
	op, ok := g.MatrixFree()
	if !ok {
		t.Fatal("no matrix-free Box125 operator")
	}
	x := sinVector(a.Rows)
	for _, p := range []int{2, 3} {
		pt := partition.RowBlock(a.Rows, p)
		xs := Scatter(pt, x)
		for _, fold := range []bool{false, true} {
			csr := NewEngines(NewFabric(p, 0), a, pt, jacobiPC)
			box := NewEnginesOp(NewFabric(p, 0), a, op, pt, jacobiPC)
			wantR, wantU := powersBlock(t, csr, xs, 3, true, 0.37, true, fold)
			gotR, gotU := powersBlock(t, box, xs, 3, true, 0.37, true, fold)
			sameLevels(t, "r", gotR, wantR)
			sameLevels(t, "u", gotU, wantU)
			for r := range box {
				if c, w := *box[r].Counters(), *csr[r].Counters(); c != w || c.HaloExchanges != 1 {
					t.Fatalf("p=%d rank %d fold=%v: counters %+v, CSR %+v", p, r, fold, c, w)
				}
			}
		}
	}
}

// TestSpMVPowersDeclines: each condition of the engage rule, asked directly.
func TestSpMVPowersDeclines(t *testing.T) {
	thin := thinGrid()
	ssor := func(a *sparse.CSR, lo, hi int) engine.Preconditioner { return precond.NewSSOR(a, lo, hi, 1, 1) }
	cases := []struct {
		name  string
		a     *sparse.CSR
		p     int
		pcf   PCFactory
		depth int
	}{
		{"single rank", thin, 1, jacobiPC, 3},
		{"depth 1", thin, 2, jacobiPC, 1},
		{"ssor", thin, 2, ssor, 3},
		{"thin subdomains", grid.NewSquare(8, grid.Star5).Laplacian(), 8, jacobiPC, 3},
	}
	for _, c := range cases {
		pt := partition.RowBlock(c.a.Rows, c.p)
		engines := NewEngines(NewFabric(c.p, 0), c.a, pt, c.pcf)
		Run(engines, func(r int, e *Engine) {
			dst := allocLevels(c.depth, e.NLocal())
			if e.SpMVPowers(dst, dst, make([]float64, e.NLocal()), 1) {
				t.Errorf("%s: rank %d engaged", c.name, r)
			}
			if got := *e.Counters(); got != (trace.Counters{}) {
				t.Errorf("%s: a declined block must count nothing: %+v", c.name, got)
			}
		})
	}
}

// TestDeepExchangeAllocFree: in steady state the kernel's side of a block —
// staging, packing the parity send buffers, scattering the ghost region, the
// local and ghost products — allocates nothing: an unpreconditioned block
// costs exactly the allocations of the bare fabric round carrying the same
// messages (mailbox channels and the receiver-owned payload handling are the
// fabric's; a preconditioner's Apply is its own).
func TestDeepExchangeAllocFree(t *testing.T) {
	a := thinGrid()
	const p, depth = 2, 3
	pt := partition.RowBlock(a.Rows, p)
	f := NewFabric(p, 0)
	engines := NewEngines(f, a, pt, jacobiPC)
	xs := Scatter(pt, sinVector(a.Rows))
	rs := [][][]float64{allocLevels(depth, pt.Rows(0)), allocLevels(depth, pt.Rows(1))}
	payload := [][]float64{make([]float64, 64), make([]float64, 64)}

	// Rank 1 mirrors every step rank 0 takes under AllocsPerRun.
	step := make(chan func(r int))
	done := make(chan struct{})
	go func() {
		for fn := range step {
			fn(1)
			done <- struct{}{}
		}
	}()
	both := func(fn func(r int)) func() {
		return func() {
			step <- fn
			fn(0)
			<-done
		}
	}
	seq := 1 << 20
	bare := both(func(r int) {
		f.send(r, 1-r, kindHalo, seq+r, payload[r])
		if _, err := f.recv(r, 1-r, kindHalo, seq+1-r); err != nil {
			t.Error(err)
		}
	})
	block := both(func(r int) {
		if !engines[r].SpMVPowers(rs[r], nil, xs[r], 0.5) {
			t.Error("kernel declined")
		}
	})
	block() // build the plan and the buffers
	block()
	fabricOnly := testing.AllocsPerRun(20, func() { bare(); seq += 2 })
	kernel := testing.AllocsPerRun(20, block)
	close(step)
	if kernel > fabricOnly {
		t.Fatalf("a steady-state block allocates %.1f times, the bare fabric round %.1f", kernel, fabricOnly)
	}
}

func benchPowersExchange(b *testing.B, hop time.Duration) {
	g := grid.NewCube(32, grid.Star7)
	a := g.Laplacian()
	op, _ := g.MatrixFree()
	const p, depth = 2, 3
	pt := partition.RowBlockByNNZ(a, p)
	f := NewFabric(p, hop)
	engines := NewEnginesOp(f, a, op, pt, jacobiPC)
	b.ResetTimer()
	Run(engines, func(r int, e *Engine) {
		src := make([]float64, e.NLocal())
		dstR, dstU := allocLevels(depth, e.NLocal()), allocLevels(depth, e.NLocal())
		for i := 0; i < b.N; i++ {
			if !e.SpMVPowers(dstR, dstU, src, 1) {
				b.Error("kernel declined")
				return
			}
		}
	})
}

// BenchmarkPowersExchange times one depth-3 preconditioned powers block on
// the solve_latency operator (matrix-free 32³ 7-point, 2 ranks): one deep
// exchange plus three local products.
func BenchmarkPowersExchange(b *testing.B) {
	b.Run("hop=0", func(b *testing.B) { benchPowersExchange(b, 0) })
	b.Run("hop=200us", func(b *testing.B) { benchPowersExchange(b, 200*time.Microsecond) })
}
