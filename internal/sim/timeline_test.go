package sim

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/partition"
	"repro/internal/precond"
)

func TestTimelineMatchesReduceEvents(t *testing.T) {
	a := grid.NewSquare(8, grid.Star5).Laplacian()
	e := NewEngine(a, nil)
	x := make([]float64, a.Rows)
	y := make([]float64, a.Rows)

	e.AllreduceSum(make([]float64, 2)) // reduce #1
	e.SpMV(y, x)
	req := e.IallreduceSum(make([]float64, 2)) // reduce #2
	e.SpMV(y, x)
	req.Wait()
	e.AllreduceSum(make([]float64, 2)) // reduce #3

	m := CrayXC40()
	tl := e.Timeline(m, 256)
	if len(tl) != 3 {
		t.Fatalf("timeline entries = %d want 3", len(tl))
	}
	for i := 1; i < len(tl); i++ {
		if tl[i] <= tl[i-1] {
			t.Fatal("timeline not increasing")
		}
	}
	// Final timeline entry equals the total (the run ends on a reduction).
	if b := e.Evaluate(m, 256); tl[2] != b.Total {
		t.Fatalf("last timeline %g != total %g", tl[2], b.Total)
	}
}

func TestEngineAccessors(t *testing.T) {
	a := grid.NewSquare(4, grid.Star5).Laplacian()
	e := NewEngine(a, nil)
	if e.NLocal() != 16 || e.NGlobal() != 16 {
		t.Fatal("sizes")
	}
	dst := make([]float64, 16)
	e.ApplyPC(dst, make([]float64, 16))
	if e.Counters().PCApply != 1 {
		t.Fatal("nil PC apply not counted")
	}
	if len(e.events) != 0 {
		t.Fatal("identity PC must not record an event")
	}
}

func TestSpMVPowersSimNumericsAndEvent(t *testing.T) {
	a := grid.NewSquare(6, grid.Star5).Laplacian()
	e := NewEngine(a, nil)
	e.Decomp = &partition.GridSpec{Nx: 6, Ny: 6, Nz: 1, Radius: 1}
	src := make([]float64, a.Rows)
	for i := range src {
		src[i] = float64(i%5) - 2
	}
	dst := [][]float64{make([]float64, a.Rows), make([]float64, a.Rows)}
	if e.SpMVPowers(dst, nil, src, 1) || len(e.events) != 0 {
		t.Fatal("the powers ablation must be off by default and leave no event")
	}
	e.MatrixPowers = true
	if !e.SpMVPowers(dst, nil, src, 1) {
		t.Fatal("MatrixPowers set: the engine must take the block")
	}

	want1 := make([]float64, a.Rows)
	want2 := make([]float64, a.Rows)
	a.MulVec(want1, src)
	a.MulVec(want2, want1)
	for i := range want1 {
		if dst[0][i] != want1[i] || dst[1][i] != want2[i] {
			t.Fatal("MPK numerics wrong")
		}
	}
	if e.Counters().SpMV != 2 || e.Counters().HaloExchanges != 1 {
		t.Fatalf("counters %+v", e.Counters())
	}
	// Preconditioned, with M⁻¹ folded into the products (nil dstR, the
	// one-space solver's call): the u levels and the counters are
	// bit-identical to the block with r levels, and the folded PC events
	// carry only the diagonal's stream.
	pc := NewEngine(a, precond.NewJacobi(a, 0, a.Rows))
	pc.MatrixPowers = true
	wantR, wantU := [][]float64{make([]float64, a.Rows), make([]float64, a.Rows)}, [][]float64{make([]float64, a.Rows), make([]float64, a.Rows)}
	pc.SpMVPowers(wantR, wantU, src, 0.37)
	fold := NewEngine(a, precond.NewJacobi(a, 0, a.Rows))
	fold.MatrixPowers = true
	gotU := [][]float64{make([]float64, a.Rows), make([]float64, a.Rows)}
	fold.SpMVPowers(nil, gotU, src, 0.37)
	for i := range gotU[0] {
		if math.Float64bits(gotU[0][i]) != math.Float64bits(wantU[0][i]) ||
			math.Float64bits(gotU[1][i]) != math.Float64bits(wantU[1][i]) {
			t.Fatalf("folded block: row %d differs", i)
		}
	}
	if *fold.Counters() != *pc.Counters() {
		t.Fatalf("folded block counters %+v, want %+v", *fold.Counters(), *pc.Counters())
	}
	for k, ev := range fold.events {
		if ev.kind == evPC && ev.bytes != pc.events[k].bytes-16*float64(a.Rows) {
			t.Fatalf("folded PC event %d: %g bytes, want the unfolded %g less the product's 16 per row", k, ev.bytes, pc.events[k].bytes)
		}
	}
	// The modeled time must include the deep exchange.
	b := e.Evaluate(CrayXC40(), 9)
	if b.Halo <= 0 || b.Compute <= 0 {
		t.Fatalf("MPK breakdown %+v", b)
	}
	// Without a grid hint the fallback path must also price it.
	e.Decomp = nil
	b2 := e.Evaluate(CrayXC40(), 9)
	if b2.Halo <= 0 {
		t.Fatalf("fallback MPK breakdown %+v", b2)
	}
}
