package krylov

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/precond"
)

// goldenCase is one pinned s-step run: the 7-point Poisson operator on an
// n³ grid with a splitmix64 right-hand side, Jacobi when the method is
// preconditioned — reporting its diagonal, so the solver runs in one space,
// or behind opaquePC with twin set.
type goldenCase struct {
	method  string
	n, s    int
	replace int     // Options.ReplaceEvery
	rtol    float64 // 0 = the paper's 1e-5
	twin    bool
}

// opaquePC hides a preconditioner's engine.DiagonalPC capability, so the
// same Jacobi runs the twin-space path.
type opaquePC struct{ engine.Preconditioner }

func (gc goldenCase) run(t *testing.T) (*Result, *engine.Seq) {
	t.Helper()
	a := grid.NewCube(gc.n, grid.Star7).Laplacian()
	b := make([]float64, a.Rows)
	state := uint64(13)
	for i := range b {
		b[i] = float64(splitmix64(&state)>>11) / float64(1<<53)
	}
	var pc engine.Preconditioner
	if gc.method == "pscg" || gc.method == "pipe-pscg" {
		pc = precond.NewJacobi(a, 0, a.Rows)
		if gc.twin {
			pc = opaquePC{pc}
		}
	}
	solve := map[string]Solver{"scg": SCG, "pscg": PSCG, "scg-s": SCGS, "pipe-scg": PIPESCG, "pipe-pscg": PIPEPSCG}[gc.method]
	e := engine.NewSeq(a, pc)
	opt := Defaults()
	opt.S = gc.s
	opt.ReplaceEvery = gc.replace
	opt.MaxIter = 600
	if gc.rtol > 0 {
		opt.RelTol = gc.rtol
	}
	res, err := solve(e, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, e
}

// goldenSolve is the pinned PIPE-PsCG run of TestPipePsCGGolden: 20³ (8000
// rows, two kernel chunks), the paper's defaults (s=3, rtol 1e-5).
func goldenSolve(t *testing.T) (*Result, *engine.Seq) {
	return goldenCase{method: "pipe-pscg", n: 20, s: 3}.run(t)
}

// goldenDigest renders everything the sweep refactor must leave untouched:
// the iterate's bits (hashed), every history point's bits, and every counter
// except the charged flop totals (pinned separately below).
func goldenDigest(res *Result, e *engine.Seq) string {
	var sb strings.Builder
	h := fnv.New64a()
	var w [8]byte
	for _, v := range res.X {
		u := math.Float64bits(v)
		for k := range w {
			w[k] = byte(u >> (8 * k))
		}
		h.Write(w[:])
	}
	fmt.Fprintf(&sb, "x=%016x iters=%d outer=%d conv=%v relres=%016x\n",
		h.Sum64(), res.Iterations, res.Outer, res.Converged, math.Float64bits(res.RelRes))
	for _, hp := range res.History {
		fmt.Fprintf(&sb, "h %d %016x %d\n", hp.Iteration, math.Float64bits(hp.RelRes), hp.ReduceIndex)
	}
	for _, f := range e.C.Fields() {
		if f.Name == "flops" {
			continue
		}
		fmt.Fprintf(&sb, "c %s %v\n", f.Name, f.Value)
	}
	return sb.String()
}

// pipePsCGTwinGolden was captured from the per-kernel formulation (commit
// 2b59d6b, before the fused sweep replaced InitAddScaledBlock /
// AccumulateColumns / SubtractColumns / packDots); the twin-space path still
// reproduces it.
const pipePsCGTwinGolden = `x=7c9882a97acf12ad iters=48 outer=16 conv=true relres=3edcb2bc610b39df
h 0 3fc5555555555557 2
h 3 3fd36fb4cff8a742 3
h 6 3fcb9c23cc7ec634 4
h 9 3fc297307a1d9f72 5
h 12 3fb792c7b283542e 6
h 15 3fa86065e7abe2e2 7
h 18 3f9036fbbf06c999 8
h 21 3f77a7534378efd0 9
h 24 3f60605f209e3ecc 10
h 27 3f4a600540b4af91 11
h 30 3f333e096a38d8c8 12
h 33 3f2d1febbf975462 13
h 36 3f2305a4f9b25e74 14
h 39 3f08b31e749dcf22 15
h 42 3f03039f474d7b7d 16
h 45 3eef40d9fe20e8d5 17
h 48 3edcb2bc610b39df 18
c spmv 55
c pc_apply 55
c allreduce 1
c iallreduce 17
c reduce_words 341
c halo_exchanges 55
c spmv_flops 5.896e+06
c pc_flops 440000
c iterations 48
c recoveries 0
c residual_replacements 0
c ladder_stepdowns 0
c comm_timeouts 0
c comm_resends 0
c comm_corruptions 0
`

// pipePsCGGolden is the same solve in one space: every r-space dot is
// D-weighted, so the bits move, while the iteration count and every counter
// stay those of the twin-space run.
const pipePsCGGolden = `x=21ba5b516c655140 iters=48 outer=16 conv=true relres=3edcb2287bd43272
h 0 3fc5555555555557 2
h 3 3fd36fb4cff8a6ef 3
h 6 3fcb9c23cc7ebb21 4
h 9 3fc297307a1daf19 5
h 12 3fb792c7b28411c0 6
h 15 3fa86065e7c3acf1 7
h 18 3f9036fbbf4bb3d6 8
h 21 3f77a753421d75d7 9
h 24 3f60605f0add4cce 10
h 27 3f4a60051f415b43 11
h 30 3f333e09789248fb 12
h 33 3f2d1fe9a430c9f9 13
h 36 3f2305ac38dfe02d 14
h 39 3f08b32c89e2d8e9 15
h 42 3f0303917bc7c6a2 16
h 45 3eef40689998ef26 17
h 48 3edcb2287bd43272 18
c spmv 55
c pc_apply 55
c allreduce 1
c iallreduce 17
c reduce_words 341
c halo_exchanges 55
c spmv_flops 5.896e+06
c pc_flops 440000
c iterations 48
c recoveries 0
c residual_replacements 0
c ladder_stepdowns 0
c comm_timeouts 0
c comm_resends 0
c comm_corruptions 0
`

// TestPipePsCGGolden pins the s=3 solve both ways. Twin space leaves X,
// History and every counter but the charged flop total bit-identical to the
// per-kernel formulation, and the flop total falls by exactly the deleted qR
// block (2·n·s² per outer iteration). One space matches its own pin, and
// its flop total is twin space's minus the deleted r-space recurrences plus
// the weights' multiplies.
func TestPipePsCGGolden(t *testing.T) {
	res, e := goldenCase{method: "pipe-pscg", n: 20, s: 3, twin: true}.run(t)
	if got := goldenDigest(res, e); got != pipePsCGTwinGolden {
		t.Fatalf("twin-space digest differs from the pre-sweep golden:\n%s", got)
	}
	const oldFlops = 3.5424e+07
	n, s := float64(e.NLocal()), 3.0
	if want := oldFlops - 2*n*s*s*float64(res.Outer); e.C.Flops != want {
		t.Fatalf("charged flops = %v, want %v (old total minus the qR block)", e.C.Flops, want)
	}
	twinFlops := e.C.Flops

	res, e = goldenSolve(t)
	if got := goldenDigest(res, e); got != pipePsCGGolden {
		t.Fatalf("one-space digest differs from its golden:\n%s", got)
	}
	// One space drops the s+1 aqR block recurrences and powR updates of every
	// outer iteration, and charges one multiply per row of every weighted dot
	// (s² + 3s + 1 per payload; the bootstrap's fused SPMVs produce s moments).
	removed := float64(res.Outer) * (2*n*s*s*(s+1) + 2*n*s*(s+1))
	weighted := n * ((s*s+3*s+1)*float64(res.Outer+1) - s)
	if want := twinFlops - removed + weighted; e.C.Flops != want {
		t.Fatalf("one-space charged flops = %v, want %v (twin space %v)", e.C.Flops, want, twinFlops)
	}
}

// variantGoldens pins the other members of the family, hashed: every
// variant, the s = 1, 2 and > 3 block kernels, ReplaceEvery cadences (LC
// sweep and dot sweep split by the recomputed residual), and runs of every
// variant pushed past Krylov exhaustion on 27- and 64-row systems so the
// breakdown reseed (zeroed in-place blocks, fresh bootstrap) is on the path.
// The unpreconditioned and twin-space entries were captured with goldenDigest
// from the per-kernel formulation at commit 2b59d6b; the one-space entries
// (Jacobi reporting its diagonal) repeat the preconditioned cases and, at
// s ≤ 3, must match their twin's iteration count. Past s = 3 the σ-scaled
// basis breaks down mid-solve and the count follows when the breakdown
// restart fires, which rounding moves (DESIGN.md §4.1): 60 → 95 at s = 5,
// 24 → 30 on the 27-row s = 6 exhaustion run.
var variantGoldens = []struct {
	goldenCase
	recoveries int
	digest     uint64
}{
	{goldenCase{"scg", 20, 3, 0, 0, false}, 0, 0xae26b17941846ffc},
	{goldenCase{"pscg", 20, 3, 0, 0, true}, 0, 0x4e0955971bc132b8},
	{goldenCase{"scg-s", 20, 3, 0, 0, false}, 0, 0x7bf6ddd3e7c286ba},
	{goldenCase{"pipe-scg", 20, 3, 0, 0, false}, 0, 0x73d3b599105fbc98},
	{goldenCase{"pipe-pscg", 20, 1, 0, 0, true}, 0, 0xb76842ddeb2a6147},
	{goldenCase{"pipe-scg", 20, 2, 0, 0, false}, 0, 0xdbc09a983fe4cdca},
	{goldenCase{"pipe-pscg", 20, 5, 0, 0, true}, 1, 0xf464c9bd8209e5ea},
	{goldenCase{"pipe-pscg", 20, 3, 9, 1e-9, true}, 0, 0xbd7b4f7f5b48856a},
	{goldenCase{"scg-s", 20, 4, 8, 1e-9, false}, 0, 0xdc3f9f2b904fc10c},
	{goldenCase{"scg", 4, 8, 0, 1e-9, false}, 1, 0xac5a1ed378535ed0},
	{goldenCase{"pscg", 3, 8, 0, 1e-13, true}, 1, 0x9f75036b98b25084},
	{goldenCase{"scg-s", 4, 8, 0, 1e-13, false}, 1, 0x101116c2ba983f93},
	{goldenCase{"pipe-scg", 3, 6, 0, 1e-13, false}, 1, 0x99292e00623964c8},
	{goldenCase{"pipe-pscg", 3, 6, 0, 1e-13, true}, 1, 0x654e18327935c923},
	{goldenCase{"pscg", 20, 3, 0, 0, false}, 0, 0xc8e857367925ee49},
	{goldenCase{"pipe-pscg", 20, 1, 0, 0, false}, 0, 0x8f47a8bf7866c2fb},
	{goldenCase{"pipe-pscg", 20, 5, 0, 0, false}, 1, 0x98146fdd50232fad},
	{goldenCase{"pipe-pscg", 20, 3, 9, 1e-9, false}, 0, 0x623c4f5ed1abe367},
	{goldenCase{"pscg", 3, 8, 0, 1e-13, false}, 1, 0x1b4a6eef82861dce},
	{goldenCase{"pipe-pscg", 3, 6, 0, 1e-13, false}, 1, 0xcf77c417665f8ae},
}

func TestSStepVariantGoldens(t *testing.T) {
	for _, g := range variantGoldens {
		res, e := g.run(t)
		if pre := g.method == "pscg" || g.method == "pipe-pscg"; pre && !g.twin && g.s <= 3 {
			twin := g.goldenCase
			twin.twin = true
			if tr, _ := twin.run(t); tr.Iterations != res.Iterations {
				t.Errorf("%+v: %d iterations in one space, %d in twin space", g.goldenCase, res.Iterations, tr.Iterations)
			}
		}
		h := fnv.New64a()
		h.Write([]byte(goldenDigest(res, e)))
		if e.C.Recoveries != g.recoveries || h.Sum64() != g.digest {
			t.Errorf("{goldenCase{%q, %d, %d, %d, %g, %v}, %d, %#x},",
				g.method, g.n, g.s, g.replace, g.rtol, g.twin, e.C.Recoveries, h.Sum64())
		}
	}
}
