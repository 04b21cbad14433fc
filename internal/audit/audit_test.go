package audit

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/krylov"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// acceptanceSeed pins the sweep the Makefile's audit target (and the PR's
// acceptance criteria) run: 50 configs, all engines, zero violations.
const acceptanceSeed = 0xa0d17_2026

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(acceptanceSeed, 64)
	b := Generate(acceptanceSeed, 64)
	if len(a) != 64 || len(b) != 64 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("config %d differs across identical seeds: %s vs %s", i, a[i], b[i])
		}
	}
	c := Generate(acceptanceSeed+1, 64)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced an identical sweep")
	}

	// Every generated config is well-formed: unpreconditioned methods carry
	// pc=none, one-step methods carry s=1.
	for _, cfg := range a {
		m, err := krylov.MethodByName(cfg.Method)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if m.Unpreconditioned && cfg.PC != "none" {
			t.Fatalf("%s: unpreconditioned method with pc=%s", cfg, cfg.PC)
		}
		if !m.SStep && cfg.S != 1 {
			t.Fatalf("%s: one-step method with s=%d", cfg, cfg.S)
		}
	}
}

func TestParseConfigRoundTrip(t *testing.T) {
	for _, cfg := range Generate(acceptanceSeed, 32) {
		got, err := ParseConfig(cfg.String())
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if got != cfg {
			t.Fatalf("round trip: %s became %s", cfg, got)
		}
	}
	// The repro form used in pinned regression tests parses.
	c, err := ParseConfig("problem=poisson7;n=6;method=pipe-pscg;pc=jacobi;s=3;seed=0x9e3779b97f4a7c15")
	if err != nil {
		t.Fatal(err)
	}
	if c.Problem != "poisson7" || c.N != 6 || c.S != 3 || c.Seed != 0x9e3779b97f4a7c15 {
		t.Fatalf("parsed %+v", c)
	}
	for _, bad := range []string{
		"problem=poisson7", // missing method
		"method=pcg",       // missing problem
		"problem=p;method=m;s=x",
		"problem=p;method=m;bogus=1",
		"problem=p;method=m;n=4;n=5",
		"problem=p;method=m;k=-2",
	} {
		if _, err := ParseConfig(bad); err == nil {
			t.Fatalf("ParseConfig(%q) accepted a malformed config", bad)
		}
	}
}

// FuzzParseConfig: no input panics the parser, and every config it accepts
// is in the canonical form — its String re-parses to the same Config. `go
// test` runs the committed corpus (testdata/fuzz); `make fuzz` explores
// beyond it.
func FuzzParseConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseConfig(s)
		if err != nil {
			return
		}
		back, err := ParseConfig(c.String())
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose String %q is refused: %v", s, c, c.String(), err)
		}
		if back != c {
			t.Fatalf("%q parsed to %+v, but its String %q re-parses to %+v", s, c, c.String(), back)
		}
	})
}

// TestAuditBlockAxis covers the multi-RHS audit axis: the generator emits
// k>1 configs, k round-trips through the wire format, and AuditBlock holds a
// width-3 gang to bit-identity against its solo baselines across method
// families with zero violations.
func TestAuditBlockAxis(t *testing.T) {
	var withK int
	for _, cfg := range Generate(acceptanceSeed, 64) {
		if cfg.K > 1 {
			withK++
			if cfg.K < 2 || cfg.K > 4 {
				t.Fatalf("%s: generated k=%d outside 2..4", cfg, cfg.K)
			}
			got, err := ParseConfig(cfg.String())
			if err != nil {
				t.Fatalf("%s: %v", cfg, err)
			}
			if got.K != cfg.K {
				t.Fatalf("k round trip: %s became k=%d", cfg, got.K)
			}
		}
	}
	if withK == 0 {
		t.Fatal("64-config sweep generated no k>1 configs")
	}

	for _, method := range []string{"pcg", "scg", "pipe-pscg"} {
		cfg := Config{Problem: "poisson7", N: 6, Method: method, PC: "jacobi", S: 2, K: 3, Seed: 7}
		m, _ := krylov.MethodByName(method)
		if m.Unpreconditioned {
			cfg.PC = "none"
		}
		if !m.SStep {
			cfg.S = 1
		}
		vs, runs := AuditBlock(cfg, DefaultParams())
		if runs != cfg.K+1 {
			t.Errorf("%s: %d runs, want %d", method, runs, cfg.K+1)
		}
		for _, v := range vs {
			t.Errorf("%s", v)
		}
	}
}

// TestAuditBlockCatchesPerturbation proves the block comparator has teeth:
// a deliberately mismatched solo baseline (perturbed RHS on one column)
// must be reported.
func TestAuditBlockCatchesPerturbation(t *testing.T) {
	// A config whose gang solves a DIFFERENT column-1 system than the solo
	// baseline would: simulate by shrinking k on a synthetic failure — here
	// we instead assert AuditBlock flags nothing on a clean config but the
	// shrinker reduces k first on a k-dependent failure.
	start := Config{Problem: "poisson7", N: 9, Method: "pcg", PC: "jacobi", S: 1, K: 4}
	fails := func(c Config) bool { return c.K >= 3 && c.N >= 7 }
	min := Shrink(start, fails)
	if !fails(min) {
		t.Fatalf("shrunk config %s no longer fails", min)
	}
	if min.K != 3 {
		t.Fatalf("shrinker did not minimize k: %s (k=%d)", min, min.K)
	}
	if min.N != 7 {
		t.Fatalf("shrinker did not minimize n after k: %s", min)
	}
	// Round trip of the shrunk k-config.
	back, err := ParseConfig(min.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != min {
		t.Fatalf("repro round trip: %s became %s", min, back)
	}
}

// TestAuditSweep is the acceptance gate of ISSUE 4: a seeded sweep of ≥ 50
// configurations across all three engines (and both worker-pool extremes)
// completes with zero equivalence, invariant, or drift violations.
func TestAuditSweep(t *testing.T) {
	count := 50
	if testing.Short() {
		count = 12
	}
	rep := Sweep(SweepOptions{
		Seed: acceptanceSeed, Count: count, Params: DefaultParams(), Shrink: true,
	})
	if rep.Configs != count {
		t.Fatalf("swept %d configs, want %d", rep.Configs, count)
	}
	if rep.Runs < count*len(DefaultSpecs()) {
		t.Fatalf("only %d runs for %d configs × %d specs", rep.Runs, count, len(DefaultSpecs()))
	}
	for _, v := range rep.Violations {
		t.Errorf("%s", v)
	}
	t.Logf("%d configs, %d runs, max drift ratio %.3f", rep.Configs, rep.Runs, rep.MaxDriftRatio)
}

// TestAuditBitIdentityMatrix is the cross-engine matrix of ISSUE 4's fourth
// satellite: Seq vs sim vs comm P∈{1,4,7} at pool sizes {1, NumCPU}, all six
// methods, two seed problems, judged by the audit comparator (bit group =
// bit identity of iterate, history and ledger; P>1 = cross-P policy).
func TestAuditBitIdentityMatrix(t *testing.T) {
	specs := DefaultSpecs()
	p := DefaultParams()
	for _, problem := range []struct {
		name string
		n    int
	}{{"poisson7", 6}, {"poisson125", 4}} {
		for _, method := range methodPool {
			cfg := Config{Problem: problem.name, N: problem.n, Method: method, S: 1, PC: "none"}
			m, _ := krylov.MethodByName(method)
			if m.SStep {
				cfg.S = 3
			}
			if !m.Unpreconditioned {
				cfg.PC = "jacobi"
			}
			t.Run(cfg.Problem+"/"+cfg.Method, func(t *testing.T) {
				vs, runs, _ := AuditConfig(cfg, specs, p)
				if runs != len(specs) {
					t.Fatalf("%d runs, want %d", runs, len(specs))
				}
				for _, v := range vs {
					t.Errorf("%s", v)
				}
			})
		}
	}
}

// TestDriftAuditorFlags drives the drift auditor directly: an honest iterate
// passes, an iterate whose recurrence residual under-reports the true
// residual by more than the factor is flagged.
func TestDriftAuditorFlags(t *testing.T) {
	// A = I (3×3), b = (1,1,1): true residual of x is b − x, exactly.
	a := sparse.FromDense(3, 3, []float64{1, 0, 0, 0, 1, 0, 0, 0, 1})
	b := []float64{1, 1, 1}
	p := DefaultParams()
	p.DriftEvery = 1
	p.DriftFactor = 10
	p.DriftFloor = 1e-12

	da := NewDriftAuditor(a, b, 1, p)
	// Honest: x = 0 → true rel = 1, reported rel = 1.
	da.Observe(krylov.HistPoint{Iteration: 0, RelRes: 1}, []float64{0, 0, 0})
	if len(da.Report().Violations) != 0 {
		t.Fatalf("honest sample flagged: %v", da.Report().Violations)
	}
	// Drifted: recurrence claims 1e-9 while the iterate is still at x = 0
	// (true rel = 1) — 10⁹ above the reported residual.
	da.Observe(krylov.HistPoint{Iteration: 1, RelRes: 1e-9}, []float64{0, 0, 0})
	rep := da.Report()
	if len(rep.Violations) != 1 {
		t.Fatalf("drifted sample not flagged: %v", rep.Violations)
	}
	if rep.MaxRatio < 1e8 {
		t.Fatalf("max ratio %g did not capture the drift", rep.MaxRatio)
	}

	// Below the absolute floor the gap is attainable-accuracy physics, not
	// a bug: true rel 1e-13 over recurrence 1e-16 must NOT flag.
	da2 := NewDriftAuditor(a, b, 1, p)
	near := []float64{1 - 1e-13/math.Sqrt(3)*math.Sqrt(3), 1, 1} // ~1e-13 residual in row 0
	near[0] = 1 - 1e-13
	da2.Observe(krylov.HistPoint{Iteration: 0, RelRes: 1e-16}, near)
	if len(da2.Report().Violations) != 0 {
		t.Fatalf("floor-level sample flagged: %v", da2.Report().Violations)
	}

	// Non-finite recurrence residuals are the divergence guard's domain —
	// never a drift violation.
	da3 := NewDriftAuditor(a, b, 1, p)
	da3.Observe(krylov.HistPoint{Iteration: 0, RelRes: math.Inf(1)}, []float64{0, 0, 0})
	if len(da3.Report().Violations) != 0 {
		t.Fatalf("non-finite sample flagged as drift: %v", da3.Report().Violations)
	}
}

// TestGramProbeCatchesIndefinite checks the structural Gram invariant: on an
// indefinite operator the s-step basis A-Gram is not PSD and the probe must
// say so; on an SPD operator it must stay silent.
func TestGramProbeCatchesIndefinite(t *testing.T) {
	p := DefaultParams()
	p.DriftEvery = 1

	indef := sparse.FromDense(2, 2, []float64{1, 0, 0, -1})
	da := NewDriftAuditor(indef, []float64{1, 1}, 2, p)
	da.Observe(krylov.HistPoint{Iteration: 0, RelRes: 1}, []float64{0, 0})
	found := false
	for _, v := range da.Report().Violations {
		if strings.Contains(v, "gram probe") {
			found = true
		}
	}
	if !found {
		t.Fatalf("indefinite operator not flagged: %v", da.Report().Violations)
	}

	spd := sparse.FromDense(2, 2, []float64{2, -1, -1, 2})
	da2 := NewDriftAuditor(spd, []float64{1, 1}, 2, p)
	da2.Observe(krylov.HistPoint{Iteration: 0, RelRes: 1}, []float64{0, 0})
	if len(da2.Report().Violations) != 0 {
		t.Fatalf("SPD operator flagged: %v", da2.Report().Violations)
	}
}

// TestComparatorCatchesPerturbations runs one real config, then perturbs a
// copy of one run along each compared axis — iterate bit, history, ledger —
// and asserts the comparator reports exactly that axis.
func TestComparatorCatchesPerturbations(t *testing.T) {
	cfg := Config{Problem: "poisson7", N: 6, Method: "pcg", PC: "jacobi", S: 1}
	p := DefaultParams()
	base, err := Execute(cfg, EngineSpec{Kind: "seq", Pool: 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Execute(cfg, EngineSpec{Kind: "sim", Pool: 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	if vs := CompareRuns(cfg, []*Run{base, other}, p); len(vs) != 0 {
		t.Fatalf("clean pair reported violations: %v", vs)
	}

	expectViolation := func(name string, mutate func(*Run), want string) {
		t.Run(name, func(t *testing.T) {
			mutated := *other
			res := *other.Res
			mutated.Res = &res
			mutated.X = append([]float64(nil), other.X...)
			mutated.Res.History = append([]krylov.HistPoint(nil), other.Res.History...)
			mutated.Ledger = other.Ledger
			mutate(&mutated)
			vs := CompareRuns(cfg, []*Run{base, &mutated}, p)
			if len(vs) == 0 {
				t.Fatal("perturbation not detected")
			}
			ok := false
			for _, v := range vs {
				if strings.Contains(v.Detail, want) {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("wanted a %q violation, got %v", want, vs)
			}
		})
	}
	expectViolation("iterate-bit-flip", func(r *Run) {
		r.X[len(r.X)/2] = math.Float64frombits(math.Float64bits(r.X[len(r.X)/2]) ^ 1)
	}, "iterate differs")
	expectViolation("history-relres", func(r *Run) {
		r.Res.History[0].RelRes = math.Float64frombits(math.Float64bits(r.Res.History[0].RelRes) + 1)
	}, "history[0] differs")
	expectViolation("history-reduceindex", func(r *Run) {
		r.Res.History[1].ReduceIndex++
	}, "history[1] differs")
	expectViolation("ledger-spmv", func(r *Run) {
		r.Ledger.SpMV++
	}, "counter ledger differs")
	expectViolation("outcome-iterations", func(r *Run) {
		r.Res.Iterations++
	}, "outcome differs")
}

// TestInvariantsCatchBadHistory feeds hand-built pathological runs to the
// invariant checker.
func TestInvariantsCatchBadHistory(t *testing.T) {
	cfg := Config{Problem: "poisson7", N: 6, Method: "pcg", PC: "none", S: 1}
	mkRun := func(hist []krylov.HistPoint, res krylov.Result) *Run {
		res.History = hist
		if res.Iterations == 0 && len(hist) > 0 {
			res.Iterations = hist[len(hist)-1].Iteration
		}
		return &Run{Spec: EngineSpec{Kind: "seq", Pool: 1}, Res: &res, RelTol: 1e-5}
	}
	cases := []struct {
		name string
		run  *Run
		want string // "" means no violation expected
	}{
		{"clean", mkRun([]krylov.HistPoint{
			{Iteration: 0, RelRes: 1, ReduceIndex: 2},
			{Iteration: 1, RelRes: 1e-6, ReduceIndex: 5},
		}, krylov.Result{Converged: true, RelRes: 1e-6}), ""},
		{"nan-mid-history", mkRun([]krylov.HistPoint{
			{Iteration: 0, RelRes: math.NaN(), ReduceIndex: 2},
			{Iteration: 1, RelRes: 1e-6, ReduceIndex: 5},
		}, krylov.Result{Converged: true, RelRes: 1e-6}), "non-finite RelRes"},
		{"terminal-inf-with-diverged-flag", mkRun([]krylov.HistPoint{
			{Iteration: 0, RelRes: 1, ReduceIndex: 2},
			{Iteration: 1, RelRes: math.Inf(1), ReduceIndex: 5},
		}, krylov.Result{Diverged: true, RelRes: 1}), ""},
		{"terminal-inf-without-diverged-flag", mkRun([]krylov.HistPoint{
			{Iteration: 0, RelRes: 1, ReduceIndex: 2},
			{Iteration: 1, RelRes: math.Inf(1), ReduceIndex: 5},
		}, krylov.Result{RelRes: 1}), "non-finite RelRes"},
		{"reduceindex-regression", mkRun([]krylov.HistPoint{
			{Iteration: 0, RelRes: 1, ReduceIndex: 5},
			{Iteration: 1, RelRes: 0.5, ReduceIndex: 4},
		}, krylov.Result{RelRes: 0.5}), "ReduceIndex"},
		{"iteration-not-increasing", mkRun([]krylov.HistPoint{
			{Iteration: 0, RelRes: 1, ReduceIndex: 2},
			{Iteration: 0, RelRes: 0.5, ReduceIndex: 5},
		}, krylov.Result{RelRes: 0.5}), "not increasing"},
		{"false-convergence", mkRun([]krylov.HistPoint{
			{Iteration: 0, RelRes: 1, ReduceIndex: 2},
			{Iteration: 1, RelRes: 1e-3, ReduceIndex: 5},
		}, krylov.Result{Converged: true, RelRes: 1e-3}), "claims convergence"},
		{"empty-history", mkRun(nil, krylov.Result{}), "empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := CheckInvariants(cfg, tc.run)
			if tc.want == "" {
				if len(vs) != 0 {
					t.Fatalf("clean run flagged: %v", vs)
				}
				return
			}
			ok := false
			for _, v := range vs {
				if strings.Contains(v.Detail, tc.want) {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("wanted a %q violation, got %v", tc.want, vs)
			}
		})
	}
}

// TestAuditShrink drives the shrinker with a synthetic failure predicate and
// asserts local minimality: the shrunk config still fails, and every single
// further reduction passes.
func TestAuditShrink(t *testing.T) {
	fails := func(c Config) bool {
		// A "bug" that needs the preconditioner, s ≥ 2, and at least n=7.
		return c.Method == "pipe-pscg" && c.PC != "none" && c.S >= 2 && c.N >= 7
	}
	start := Config{Problem: "poisson7", N: 9, Method: "pipe-pscg", PC: "sor", S: 4}
	min := Shrink(start, fails)
	if !fails(min) {
		t.Fatalf("shrunk config %s no longer fails", min)
	}
	if min.N != 7 || min.S != 2 || min.PC != "sor" || min.Method != "pipe-pscg" {
		t.Fatalf("not minimal: %s", min)
	}
	for _, dim := range dimCandidates(min.Problem, min.N) {
		c := min
		c.N = dim
		if fails(c) {
			t.Fatalf("further n reduction to %d still fails — not minimal", dim)
		}
	}
	if c := min; c.S > 1 {
		c.S = min.S - 1
		if fails(c) {
			t.Fatal("further s reduction still fails — not minimal")
		}
	}

	// The repro line embeds the canonical config string and round-trips.
	line := ReproLine(min)
	if !strings.Contains(line, "go run ./cmd/audit -one") {
		t.Fatalf("repro line %q", line)
	}
	quoted := line[strings.Index(line, `"`)+1 : strings.LastIndex(line, `"`)]
	back, err := ParseConfig(quoted)
	if err != nil {
		t.Fatal(err)
	}
	if back != min {
		t.Fatalf("repro round trip: %s became %s", min, back)
	}
}

// TestExecutePoolRestoration pins the worker-pool hygiene: Execute must
// leave the shared pool exactly as it found it, whatever spec ran.
func TestExecutePoolRestoration(t *testing.T) {
	cfg := Config{Problem: "poisson7", N: 6, Method: "pcg", PC: "none", S: 1}
	before := runtime.GOMAXPROCS(0)
	_ = before
	for _, spec := range DefaultSpecs() {
		if _, err := Execute(cfg, spec, DefaultParams()); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
	// A final seq run at pool 1 must still be bit-identical to the very
	// first — the pool restoration worked and no spec leaked state.
	a, err := Execute(cfg, EngineSpec{Kind: "seq", Pool: 1}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(cfg, EngineSpec{Kind: "seq", Pool: 1}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			t.Fatalf("repeat runs differ at %d", i)
		}
	}
	if d := ledgerDiff(&a.Ledger, &b.Ledger); d != "" {
		t.Fatalf("repeat ledgers differ: %s", d)
	}
}

// TestExecuteRefusesWholeMatrixPCOnComm: a comm spec with a preconditioner
// that is not rank-local must fail with the shared table's error — it used to
// run with identity, silently unpreconditioned against a preconditioned seq
// reference — and the config as a whole reports it as a violation.
func TestExecuteRefusesWholeMatrixPCOnComm(t *testing.T) {
	cfg := Config{Problem: "poisson7", N: 6, Method: "pcg", PC: "icc", S: 1}
	if _, err := Execute(cfg, EngineSpec{Kind: "seq", Pool: 1}, DefaultParams()); err != nil {
		t.Fatalf("seq runs icc: %v", err)
	}
	_, err := Execute(cfg, EngineSpec{Kind: "comm", Ranks: 4, Pool: 1}, DefaultParams())
	if err == nil || !strings.Contains(err.Error(), `rank-local PCs only (jacobi, sor, none), got "icc"`) {
		t.Fatalf("comm with pc=icc: error %v, want the rank-local refusal", err)
	}
	vs, _, _ := AuditConfig(cfg, []EngineSpec{{Kind: "seq", Pool: 1}, {Kind: "comm", Ranks: 4, Pool: 1}}, DefaultParams())
	if len(vs) != 1 || vs[0].Kind != "error" {
		t.Fatalf("violations %+v, want exactly the comm spec's error", vs)
	}
	// A method that ignores its preconditioner runs wherever it is asked to.
	cfg.Method, cfg.S = "pipe-scg", 3
	if _, err := Execute(cfg, EngineSpec{Kind: "comm", Ranks: 4, Pool: 1}, DefaultParams()); err != nil {
		t.Fatalf("pipe-scg ignores pc=icc and must run: %v", err)
	}
}

// refLedger guards against silent counter-field growth: if trace.Counters
// gains a field that Fields() misses, ledger comparison would silently skip
// it. trace has its own coverage test; this assertion just ties the audit's
// ledgerDiff to it.
func TestLedgerDiffUsesAllFields(t *testing.T) {
	var a, b trace.Counters
	a.CommCorruptions = 1 // the LAST declared field — proves full coverage
	if d := ledgerDiff(&a, &b); d == "" {
		t.Fatal("ledgerDiff missed a trailing counter field")
	}
}

// TestMethodListsKnown: the sweep's method axes are selections from the
// registry — every name resolves, and the rr family is part of the pool.
func TestMethodListsKnown(t *testing.T) {
	pool := map[string]bool{}
	for _, name := range methodPool {
		pool[name] = true
		if _, err := krylov.MethodByName(name); err != nil {
			t.Error(err)
		}
	}
	for name := range rrMethods {
		if !pool[name] {
			t.Errorf("rr method %q is not in methodPool", name)
		}
	}
}
