package workload_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/trace"
	"repro/internal/workload"
)

func method(t *testing.T, name string) krylov.Method {
	t.Helper()
	m, err := krylov.MethodByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sameBits(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", tag, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %x vs %x", tag, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// reference is the hand-rolled comm sequence the driver replaced in seven
// harnesses, kept here — on the raw comm API and its own PC closures — as
// the thing SPMD.Run must equal to the bit.
func reference(t *testing.T, pr workload.Problem, solve krylov.Solver, pc string, ranks int,
	hop time.Duration, opt krylov.Options) (*krylov.Result, []trace.Counters) {
	t.Helper()
	var factory comm.PCFactory
	switch pc {
	case "jacobi":
		factory = func(a *sparse.CSR, lo, hi int) engine.Preconditioner { return precond.NewJacobi(a, lo, hi) }
	case "sor":
		factory = func(a *sparse.CSR, lo, hi int) engine.Preconditioner { return precond.NewSSOR(a, lo, hi, 1.0, 1) }
	}
	pt := partition.RowBlockByNNZ(pr.A, ranks)
	f := comm.NewFabric(ranks, hop)
	engines := comm.NewEnginesOp(f, pr.A, pr.Operator(), pt, factory)
	bs := comm.Scatter(pt, pr.B)
	results := make([]*krylov.Result, ranks)
	for r, err := range comm.RunErr(engines, func(r int, e *comm.Engine) error {
		var err error
		results[r], err = solve(e, bs[r], opt)
		return err
	}) {
		if err != nil {
			t.Fatalf("reference rank %d: %v", r, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, ranks)
	counters := make([]trace.Counters, ranks)
	for r := range xs {
		xs[r] = results[r].X
		counters[r] = *engines[r].Counters()
	}
	res := *results[0]
	res.X = comm.Gather(pt, xs)
	return &res, counters
}

// TestSPMDMatchesHandRolledSequence: iterate, history and every rank's
// counter ledger equal the hand-rolled sequence's to the bit, across
// methods, rank counts, rank-local preconditioners and hop latencies.
func TestSPMDMatchesHandRolledSequence(t *testing.T) {
	pr := workload.Poisson7(12)
	opt := workload.DefaultOptions(pr)
	for _, name := range []string{"pcg", "pipecg", "pipe-pscg", "ladder"} {
		meth := method(t, name)
		for _, ranks := range []int{1, 2, 4} {
			for _, pc := range []string{"none", "jacobi", "sor"} {
				for _, hop := range []time.Duration{0, 200 * time.Microsecond} {
					tag := fmt.Sprintf("%s/p=%d/%s/hop=%v", name, ranks, pc, hop)
					want, wantC := reference(t, pr, meth.Solve, pc, ranks, hop, opt)
					out, err := workload.SPMD{Fabric: comm.NewFabric(ranks, hop), PC: pc}.Run(pr, meth, pr.B, opt)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if r, err := out.FirstErr(); err != nil {
						t.Fatalf("%s: rank %d: %v", tag, r, err)
					}
					if out.Leak != nil {
						t.Fatalf("%s: %v", tag, out.Leak)
					}
					if !want.Converged || out.Res.Iterations != want.Iterations {
						t.Fatalf("%s: %d iterations, reference %d (converged=%v)",
							tag, out.Res.Iterations, want.Iterations, want.Converged)
					}
					sameBits(t, tag+"/X", out.Res.X, want.X)
					if !reflect.DeepEqual(out.Res.History, want.History) {
						t.Fatalf("%s: history differs from the reference", tag)
					}
					for r := range wantC {
						if got, want := out.Counters[r].Fields(), wantC[r].Fields(); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: rank %d counters %v, reference %v", tag, r, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSPMDHooksFireOnRankZeroOnly: Observe fires once per history point in
// total — on rank 0 and on no other rank.
func TestSPMDHooksFireOnRankZeroOnly(t *testing.T) {
	pr := workload.Poisson7(12)
	opt := workload.DefaultOptions(pr)
	var observe atomic.Int64
	opt.Observe = func(krylov.HistPoint, []float64) { observe.Add(1) }
	out, err := workload.SPMD{Fabric: comm.NewFabric(4, 0), PC: "jacobi"}.Run(pr, method(t, "pipe-pscg"), pr.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(out.Res.History))
	if n == 0 || observe.Load() != n {
		t.Fatalf("observe fired %d times, history has %d points", observe.Load(), n)
	}
}

// TestSPMDGathersExhaustedLadder: a ladder that runs out of budget returns
// its best merged iterate with a *krylov.LadderError on every rank, and the
// multi-rank run still gathers it, as the single-rank run returns it.
func TestSPMDGathersExhaustedLadder(t *testing.T) {
	pr := workload.Poisson7(12)
	opt := workload.DefaultOptions(pr)
	opt.RelTol, opt.MaxIter = 1e-30, 300
	out, err := workload.SPMD{Fabric: comm.NewFabric(2, 0), PC: "jacobi"}.Run(pr, method(t, "ladder"), pr.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	for r, err := range out.Errs {
		var le *krylov.LadderError
		if !errors.As(err, &le) {
			t.Fatalf("rank %d error = %v, want a *krylov.LadderError", r, err)
		}
	}
	if out.Res == nil {
		t.Fatal("the exhausted ladder's result was not gathered")
	}
	if out.Res.Iterations != out.Ranks[0].Iterations || out.Res.Iterations == 0 {
		t.Fatalf("gathered %d iterations, rank 0 ran %d", out.Res.Iterations, out.Ranks[0].Iterations)
	}
	if len(out.Res.X) != pr.A.Rows {
		t.Fatalf("gathered x has %d rows, want %d", len(out.Res.X), pr.A.Rows)
	}
}

// TestRankPCRefusesWholeMatrixPCs: a preconditioner that is not rank-local is
// an error — with the sentence the CLI and the service print — unless the
// method ignores its preconditioner, which then runs with identity.
func TestRankPCRefusesWholeMatrixPCs(t *testing.T) {
	const sentence = `rank-local PCs only (jacobi, sor, none), got "mg"`
	if _, err := workload.RankPC("mg"); err == nil || err.Error() != sentence {
		t.Fatalf("RankPC(mg) error = %v, want %q", err, sentence)
	}
	for _, name := range []string{"", "none"} {
		if f, err := workload.RankPC(name); f != nil || err != nil {
			t.Fatalf("RankPC(%q) = (%v, %v), want identity", name, f != nil, err)
		}
	}

	pr := workload.Poisson7(8)
	opt := workload.DefaultOptions(pr)
	if _, err := (workload.SPMD{Fabric: comm.NewFabric(3, 0), PC: "mg"}).Run(pr, method(t, "pcg"), pr.B, opt); err == nil ||
		!strings.Contains(err.Error(), sentence) {
		t.Fatalf("pcg with pc=mg: error %v, want the rank-local sentence", err)
	}
	out, err := workload.SPMD{Fabric: comm.NewFabric(3, 0), PC: "mg"}.Run(pr, method(t, "pipe-scg"), pr.B, opt)
	if err != nil {
		t.Fatalf("pipe-scg ignores its PC and must run: %v", err)
	}
	if out.Res == nil || !out.Res.Converged || out.Counters[0].PCApply != 0 {
		t.Fatalf("pipe-scg with pc=mg: res %+v, pc applications %d", out.Res, out.Counters[0].PCApply)
	}
}

// TestSPMDReportsFaultsAndLeak: on a seeded drop-fault fabric with a short
// receive deadline, a rank that never joins the solve leaves its peers with
// typed fault errors, no assembled result, and a mailbox leak at close.
func TestSPMDReportsFaultsAndLeak(t *testing.T) {
	pr := workload.Poisson7(8)
	errDeserter := errors.New("rank 1 never joined")
	meth := method(t, "pcg")
	solve := meth.Solve
	meth.Solve = func(e engine.Engine, b []float64, opt krylov.Options) (*krylov.Result, error) {
		if e.(*comm.Engine).Rank() == 1 {
			return nil, errDeserter
		}
		return solve(e, b, opt)
	}
	f := comm.NewFabric(4, 0).
		WithFault(&comm.FaultConfig{Seed: 7, DropRate: 0.02, Checksum: true}).
		WithRecvTimeout(2*time.Millisecond, 0)
	out, err := workload.SPMD{Fabric: f, PC: "jacobi"}.Run(pr, meth, pr.B, workload.DefaultOptions(pr))
	if err != nil {
		t.Fatal(err)
	}
	if out.Res != nil {
		t.Fatalf("a failed solve assembled a result: %+v", out.Res)
	}
	if !errors.Is(out.Errs[1], errDeserter) {
		t.Fatalf("rank 1 error = %v", out.Errs[1])
	}
	var fe *comm.FaultError
	if !errors.As(out.Errs[0], &fe) || fe.Kind != comm.FaultTimeout {
		t.Fatalf("rank 0 error = %v, want a typed comm timeout", out.Errs[0])
	}
	if r, err := out.FirstErr(); r != 0 || err != out.Errs[0] {
		t.Fatalf("FirstErr = (%d, %v)", r, err)
	}
	if !errors.As(out.Leak, &fe) || fe.Kind != comm.FaultLeak {
		t.Fatalf("Leak = %v, want a typed mailbox leak", out.Leak)
	}
}

// TestPCAgreesWithRankPC: the whole-matrix table is built on the rank-local
// entries, so PC(name) applies exactly as the P=1 rank-local factory does.
func TestPCAgreesWithRankPC(t *testing.T) {
	pr := workload.Poisson7(6)
	n := pr.A.Rows
	for _, name := range []string{"jacobi", "sor"} {
		whole, err := workload.PC(name, pr)
		if err != nil {
			t.Fatal(err)
		}
		factory, err := workload.RankPC(name)
		if err != nil {
			t.Fatal(err)
		}
		got, want := make([]float64, n), make([]float64, n)
		whole.Apply(got, pr.B)
		factory(pr.A, 0, n).Apply(want, pr.B)
		sameBits(t, name, got, want)
	}
	if pc, err := workload.PC("none", pr); pc != nil || err != nil {
		t.Fatalf("PC(none) = (%v, %v)", pc, err)
	}
	if _, err := workload.PC("bogus", pr); err == nil {
		t.Fatal("unknown preconditioner must error")
	}
}

// TestDriftProbe: the probe is the auditor's sampler — same MaxRatio on the
// same solve — and it is out of band: a probed solve's iterate and counters
// equal an unprobed one's.
func TestDriftProbe(t *testing.T) {
	pr := workload.Poisson7(10)
	opt := workload.DefaultOptions(pr)
	opt.Norm = krylov.NormUnpreconditioned
	meth := method(t, "pipe-pscg")
	solve := func(observe func(krylov.HistPoint, []float64)) (*krylov.Result, trace.Counters) {
		pc, err := workload.PC("jacobi", pr)
		if err != nil {
			t.Fatal(err)
		}
		e := engine.NewSeq(pr.Operator(), pc)
		o := opt
		o.Observe = observe
		res, err := meth.Solve(e, pr.B, o)
		if err != nil {
			t.Fatal(err)
		}
		return res, *e.Counters()
	}

	plain, plainC := solve(nil)
	ap := audit.DefaultParams()
	probe := workload.NewDriftProbe(pr.A, pr.B, ap.DriftEvery)
	samples := 0
	probe.OnSample = func(krylov.HistPoint, float64, []float64) { samples++ }
	probed, probedC := solve(probe.Observe)
	auditor := audit.NewDriftAuditor(pr.A, pr.B, opt.S, ap)
	solve(auditor.Observe)

	if probe.MaxRatio <= 0 || probe.MaxRatio != auditor.Report().MaxRatio {
		t.Fatalf("probe MaxRatio %g, auditor %g", probe.MaxRatio, auditor.Report().MaxRatio)
	}
	if want := len(auditor.Report().Samples); samples != want || samples == 0 {
		t.Fatalf("probe sampled %d times, auditor %d", samples, want)
	}
	sameBits(t, "probed X", probed.X, plain.X)
	if !reflect.DeepEqual(probedC.Fields(), plainC.Fields()) {
		t.Fatalf("probed counters %v, unprobed %v", probedC.Fields(), plainC.Fields())
	}
}

// csrHash is FNV-64a over a CSR's shape, RowPtr, Col and the bits of Val.
func csrHash(a *sparse.CSR) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(a.Rows))
	put(uint64(a.Cols))
	for _, p := range a.RowPtr {
		put(uint64(p))
	}
	for _, c := range a.Col {
		put(uint64(c))
	}
	for _, v := range a.Val {
		put(math.Float64bits(v))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestCatalogueCSRPinned pins every catalogue problem's assembled matrix —
// and the RCM-reordered form the registry builds for uploads — to the bit at
// a small size. The hashes were taken from the sort-based assembly the
// row-ordered one replaced, so a change in any assembly path shows here.
func TestCatalogueCSRPinned(t *testing.T) {
	for _, c := range []struct {
		name     string
		n, scale int
		hash     string
		rcmHash  string
	}{
		{"poisson125", 6, 0, "1d8f16a4e77389b9", ""},
		{"poisson7", 8, 0, "97637f2bee334a5e", ""},
		{"poisson5", 10, 0, "a109651d2a9d615e", ""},
		{"ecology2", 0, 64, "e95d3b57d98b7513", "c6b66bb3c88d8427"},
		{"thermal2", 0, 64, "62a617347c7ba5c7", "8ac0cc4faa36418b"},
		{"serena", 0, 16, "bdec9c2d1c8a7213", ""},
	} {
		pr, err := workload.ProblemByName(c.name, c.n, c.scale)
		if err != nil {
			t.Fatal(err)
		}
		if got := csrHash(pr.A); got != c.hash {
			t.Errorf("%s: CSR hash %s, want %s", c.name, got, c.hash)
		}
		if c.rcmHash == "" {
			continue
		}
		if got := csrHash(pr.Reordered(sparse.RCMOrder(pr.A)).A); got != c.rcmHash {
			t.Errorf("%s/rcm: CSR hash %s, want %s", c.name, got, c.rcmHash)
		}
	}
}

// productHash hashes the bits of the operator's product with a fixed
// vector that mixes signs, magnitudes and exact zeros of both signs.
func productHash(op engine.Operator) string {
	n, _ := op.Dims()
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		switch i % 7 {
		case 0:
			x[i] = 0
		case 3:
			x[i] = math.Copysign(0, -1)
		default:
			x[i] = math.Ldexp(float64(i%11)-5.5, i%9-4) / 3
		}
	}
	op.MulVec(y, x)
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range y {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPoisson125StencilPinned pins the 125-point product to the bit at three
// sizes: the hashes were taken from the assembled matrix's product, and the
// problem's matrix-free operator must give the same bits.
func TestPoisson125StencilPinned(t *testing.T) {
	for _, c := range []struct {
		n    int
		hash string
	}{{6, "b1d98b20b5732e69"}, {12, "5d3e5e76dbaca074"}, {20, "129f232ade5bc433"}} {
		pr := workload.Poisson125(c.n)
		if got := productHash(pr.A); got != c.hash {
			t.Errorf("n=%d: CSR product hash %s, want %s", c.n, got, c.hash)
		}
		if got := productHash(pr.Operator()); got != c.hash {
			t.Errorf("n=%d: stencil product hash %s, want %s", c.n, got, c.hash)
		}
	}
}

// TestPoisson7StencilPinned is the star stencils' TestPoisson125StencilPinned:
// product hashes of Poisson7 and Poisson5, taken from the assembled matrix's
// product, which the matrix-free operator must give to the bit.
func TestPoisson7StencilPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		pr   func(int) workload.Problem
		n    int
		hash string
	}{
		{"poisson7", workload.Poisson7, 6, "082cbaa6b1b03559"},
		{"poisson7", workload.Poisson7, 16, "bf30e4445a694912"},
		{"poisson7", workload.Poisson7, 24, "a0dd181a6703671b"},
		{"poisson5", workload.Poisson5, 9, "90300b319d07265d"},
		{"poisson5", workload.Poisson5, 64, "736ec880d3b3caed"},
	} {
		pr := c.pr(c.n)
		if pr.Op == nil {
			t.Fatalf("%s(%d) has no matrix-free operator", c.name, c.n)
		}
		if got := productHash(pr.A); got != c.hash {
			t.Errorf("%s n=%d: CSR product hash %s, want %s", c.name, c.n, got, c.hash)
		}
		if got := productHash(pr.Operator()); got != c.hash {
			t.Errorf("%s n=%d: stencil product hash %s, want %s", c.name, c.n, got, c.hash)
		}
	}
}

// TestPoisson125MatrixFree: the paper's workload applies the Box125 stencil
// at every grid size, from one point up.
func TestPoisson125MatrixFree(t *testing.T) {
	for _, n := range []int{1, 2, 5, 24} {
		if pr := workload.Poisson125(n); pr.Op == nil {
			t.Errorf("Poisson125(%d) has no matrix-free operator", n)
		}
	}
}

// TestReorderedUnpermute pins Problem.Perm's contract (perm[new] = old): the
// reordered system's solution, unpermuted, solves the source system.
func TestReorderedUnpermute(t *testing.T) {
	pr := workload.Ecology2(64)
	perm := sparse.RCMOrder(pr.A)
	re := pr.Reordered(perm)
	if re.Op != nil || len(re.Perm) != pr.A.Rows {
		t.Fatalf("Reordered left Op=%v Perm len %d", re.Op, len(re.Perm))
	}
	for i, old := range perm {
		if re.B[i] != pr.B[old] {
			t.Fatalf("B[%d] = %g, want source B[%d] = %g", i, re.B[i], old, pr.B[old])
		}
	}
	x := make([]float64, pr.A.Rows)
	for i := range x {
		x[i] = float64(i)
	}
	px := make([]float64, len(x))
	sparse.PermuteVec(px, x, perm)
	sameBits(t, "Unpermute(Permute(x))", re.Unpermute(px), x)
	if got := pr.Unpermute(x); &got[0] != &x[0] {
		t.Fatal("Unpermute on an unreordered problem must return x itself")
	}
}
