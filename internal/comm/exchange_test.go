package comm

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/partition"
)

// TestChaosInterleavedHaloRounds: scalar, block and deep rounds share the
// products' ghost exchange and its parity send buffers, whose width grows
// with the widest block. Interleaving all three under dropped, duplicated
// and corrupted (checksummed) messages, with resends from both parities,
// must leave every column bit-identical to its fault-free per-column
// product.
func TestChaosInterleavedHaloRounds(t *testing.T) {
	a := grid.Grid{Nx: 4, Ny: 192, Nz: 1, Stencil: grid.Star5}.Laplacian()
	n := a.Rows
	const depth = 3
	rng := rand.New(rand.NewSource(5))
	xs := make([][]float64, 4)
	for j := range xs {
		xs[j] = make([]float64, n)
		for i := range xs[j] {
			xs[j][i] = rng.NormFloat64()
		}
	}
	product := func(x []float64) []float64 {
		y := make([]float64, n)
		a.MulVec(y, x)
		return y
	}
	wantCols := make([][]float64, len(xs))
	for j := range xs {
		wantCols[j] = product(xs[j])
	}
	wantPowers := [][]float64{product(xs[0])}
	for len(wantPowers) < depth {
		wantPowers = append(wantPowers, product(wantPowers[len(wantPowers)-1]))
	}
	rounds := [][]int{{0, 1, 2}, {3}, {1, 3}, nil, {0, 1, 2, 3}} // nil: the powers block

	faults := map[string]*FaultConfig{
		"drop":    {Seed: 3, DropRate: 1.0},
		"dup":     {Seed: 9, DupRate: 1.0},
		"corrupt": {Seed: 5, CorruptRate: 0.5, Checksum: true},
	}
	for _, p := range []int{2, 4, 6} {
		pt := partition.RowBlock(n, p)
		for name, fc := range faults {
			f := NewFabric(p, 0).WithFault(fc).WithRecvTimeout(2*time.Millisecond, 50)
			engines := NewEngines(f, a, pt, nil)
			errs := RunErr(engines, func(r int, e *Engine) error {
				lo, hi := pt.Lo(r), pt.Hi(r)
				same := func(what string, got, want []float64) {
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[lo+i]) {
							t.Errorf("p=%d %s rank %d %s row %d: %g want %g", p, name, r, what, lo+i, got[i], want[lo+i])
							return
						}
					}
				}
				for pass := 0; pass < 2; pass++ { // resends from both parities
					for _, cols := range rounds {
						if cols == nil {
							levels := allocLevels(depth, hi-lo)
							if !e.SpMVPowers(levels, nil, xs[0][lo:hi], 1) {
								t.Errorf("p=%d rank %d: the powers kernel declined", p, r)
								return nil
							}
							for j := range levels {
								same("powers level", levels[j], wantPowers[j])
							}
							continue
						}
						srcs, dsts := make([][]float64, len(cols)), allocLevels(len(cols), hi-lo)
						for jj, j := range cols {
							srcs[jj] = xs[j][lo:hi]
						}
						if len(cols) == 1 {
							e.SpMV(dsts[0], srcs[0])
						} else {
							e.SpMVBlock(dsts, srcs)
						}
						for jj, j := range cols {
							same("column", dsts[jj], wantCols[j])
						}
					}
				}
				return nil
			})
			for r, err := range errs {
				if err != nil {
					t.Fatalf("p=%d %s rank %d: %v", p, name, r, err)
				}
			}
			if st := f.TotalStats(); st.DropsInjected+st.DupsInjected+st.FlipsInjected == 0 {
				t.Fatalf("p=%d %s: no fault injected: %s", p, name, st)
			}
			if err := f.Close(); err != nil {
				t.Fatalf("p=%d %s: close after full recovery: %v", p, name, err)
			}
		}
	}
}

// TestBlockExchangeAllocFree: once a round of width k has grown the parity
// send buffers, block rounds of width ≤ k — staging, packing, scattering,
// the block product — cost exactly the allocations of the bare fabric round
// carrying the same messages.
func TestBlockExchangeAllocFree(t *testing.T) {
	a := thinGrid()
	const p, k = 2, 4
	pt := partition.RowBlock(a.Rows, p)
	f := NewFabric(p, 0)
	engines := NewEngines(f, a, pt, nil)
	xs := Scatter(pt, sinVector(a.Rows))
	srcs := [][][]float64{make([][]float64, k), make([][]float64, k)}
	dsts := [][][]float64{allocLevels(k, pt.Rows(0)), allocLevels(k, pt.Rows(1))}
	for r := range srcs {
		for j := range srcs[r] {
			srcs[r][j] = xs[r]
		}
	}
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
	width := k
	block := both(func(r int) { engines[r].SpMVBlock(dsts[r][:width], srcs[r][:width]) })
	block() // grow the buffers to width k
	fabricOnly := testing.AllocsPerRun(20, func() { bare(); seq += 2 })
	kernel := testing.AllocsPerRun(20, func() {
		width = 2 + width%(k-1) // 3, 4, 2, 3, ...: every width in [2, k]
		block()
	})
	close(step)
	if kernel > fabricOnly {
		t.Fatalf("a block round of width ≤ %d allocates %.1f times, the bare fabric round %.1f", k, kernel, fabricOnly)
	}
}

// TestTimeoutReductionsStayOffLedger: a reduction that never completes keeps
// its allreduce_wait span but enters neither the counters nor the overlap
// ledger — a blocking one whose peer deserts, and a posted one whose Wait
// unwinds the same way; the post itself is counted, as it happened.
func TestTimeoutReductionsStayOffLedger(t *testing.T) {
	a := grid.NewSquare(6, grid.Star5).Laplacian()
	const p = 2
	pt := partition.RowBlock(a.Rows, p)
	for _, posted := range []bool{false, true} {
		f := NewFabric(p, 0).WithRecvTimeout(time.Millisecond, 3)
		engines := NewEngines(f, a, pt, nil)
		tr := obs.New(0)
		engines[0].SetTracer(tr)
		errs := RunErr(engines, func(r int, e *Engine) error {
			if r == 1 {
				return nil // rank 1 deserts the reduction
			}
			buf := []float64{1, 2, 3}
			if posted {
				e.IallreduceSum(buf).Wait()
			} else {
				e.AllreduceSum(buf)
			}
			return nil
		})
		var fe *FaultError
		if !errors.As(errs[0], &fe) {
			t.Fatalf("posted=%v: rank 0 should surface a typed FaultError, got %v", posted, errs[0])
		}
		c, s := engines[0].Counters(), tr.Summary()
		if c.Allreduce != 0 || posted != (c.Iallreduce == 1 && c.ReduceWords == 3) || !posted && c.ReduceWords != 0 {
			t.Errorf("posted=%v: counters booked a reduction that never completed: %+v", posted, *c)
		}
		if s.Overlap != (obs.OverlapStats{}) {
			t.Errorf("posted=%v: the failed reduction entered the ledger: %+v", posted, s.Overlap)
		}
		if got := s.Phases[obs.PhaseAllreduceWait].Count; got != 1 {
			t.Errorf("posted=%v: %d allreduce_wait spans, want the failed wait's 1", posted, got)
		}
		f.Close()
	}
}
