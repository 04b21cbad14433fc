package main

import (
	"fmt"
	"math"
	"time"
)

// metrics is name → value for one run; units live in names.go.
type metrics map[string]float64

// runConfig is what one invocation measures.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64 // budget of the timed section
	scale    float64 // < 1 shrinks problems, call counts and set-up repeats (smoke runs)
	traced   bool
	outDir   string // span files land here

	// tamper, set only by tests, is applied to every iterate a solve_*
	// workload returns before the gate sees it: how the tests show that a
	// corrupted result ends in a non-zero exit.
	tamper func(x []float64)
}

// scaledDim shrinks a grid dimension by the cube root of scale, so rows
// shrink by scale.
func (c runConfig) scaledDim(n int) int {
	if c.scale >= 1 {
		return n
	}
	return max(8, int(math.Round(float64(n)*math.Cbrt(c.scale))))
}

// calls scales a fixed call count of a microtiming.
func (c runConfig) calls(n int) int {
	if c.scale >= 1 {
		return n
	}
	return max(3, int(float64(n)*c.scale))
}

// setupRepeats is how often set-up is built per run: the untraced pass
// reports the median of three so one slow build does not move setup_s.
func (c runConfig) setupRepeats() int {
	if c.traced || c.scale < 1 {
		return 1
	}
	return 3
}

// splitmix64 is the benchmark's only random source: every input is a pure
// function of the seed.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit returns a float64 uniform in [-1, 1).
func (s *splitmix64) unit() float64 { return float64(s.next()>>11)/(1<<52) - 1 }

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// seededSystem draws the exact solution x* uniform in [0, 2) from the seed
// and returns b = A·x*. Seeds change every entry of b, but not the iteration
// count (measured: identical over 16 seeds on all three solve_* operators),
// so runs with different seeds time the same amount of work.
func seededSystem(a *csrMatrix, seed uint64) (b []float64) {
	rng := splitmix64(seed)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1 + rng.unit()
	}
	b = make([]float64, a.Rows)
	a.MulVec(b, x)
	return b
}

// solveWorkload describes one solve_* workload.
type solveWorkload struct {
	gridN      int
	points     int // 7 or 125
	matrixFree bool
	ranks      int           // 1 = sequential engine
	hop        time.Duration // injected per-hop latency when ranks > 1
	methods    []string      // one round solves each once; the order rotates per round
}

var solveWorkloads = map[string]solveWorkload{
	"solve_vector":  {gridN: 48, points: 7, matrixFree: true, ranks: 1, methods: []string{"pcg", "pipe-pscg"}},
	"solve_spmv":    {gridN: 32, points: 125, ranks: 1, methods: []string{"pcg", "pipe-pscg"}},
	"solve_latency": {gridN: 32, points: 7, matrixFree: true, ranks: 2, hop: time.Millisecond, methods: []string{"pcg", "pipecg", "pipe-pscg"}},
}

// solveProblem is a built operator with everything a solve needs.
type solveProblem struct {
	a  *csrMatrix
	op operator
	pc precondT // sequential engine only; comm builds rank-local Jacobi itself
	pt rowPart  // ranks > 1
	b  []float64
}

// buildTimes are the set-up children of one build.
type buildTimes struct {
	problem, partition, pc, warmup, total time.Duration
}

// oneSolve is the outcome of a single timed solve.
type oneSolve struct {
	method   string
	elapsed  time.Duration
	res      *solveResult
	counters counters
	msgs     int64
	sums     []obsSummary // per rank when traced
}

func (w solveWorkload) solve(p *solveProblem, method string, traced bool) (oneSolve, error) {
	if w.ranks == 1 {
		var tr *tracer
		if traced {
			tr = newTracer(0)
		}
		t0 := time.Now()
		res, c, err := seqSolve(p.op, p.pc, method, p.b, tr)
		out := oneSolve{method: method, elapsed: time.Since(t0), res: res, counters: c}
		if traced {
			out.sums = []obsSummary{tr.Summary()}
		}
		return out, err
	}
	run, err := commSolve(p.a, p.op, p.pt, w.hop, method, p.b, traced)
	return oneSolve{method: method, elapsed: run.elapsed, res: run.res, counters: run.counters,
		msgs: run.msgs, sums: run.sums}, err
}

// build constructs the problem under a set-up span and warms every method
// once, gating the warm-up solves like any other.
func (w solveWorkload) build(cfg runConfig, g *gate, log *spanLog, parent *open, rep int) (*solveProblem, buildTimes) {
	op := fmt.Sprintf("setup-%d", rep)
	setup := log.begin(parent, op, "setup")
	t0 := time.Now()
	var bt buildTimes
	p := &solveProblem{}

	sp := log.begin(setup, op, "problem_build")
	t := time.Now()
	p.a, p.op = poisson(cfg.scaledDim(w.gridN), w.points, w.matrixFree)
	p.b = seededSystem(p.a, cfg.seed)
	bt.problem = time.Since(t)
	sp.end()

	if w.ranks > 1 {
		sp = log.begin(setup, op, "partition_build")
		t = time.Now()
		p.pt = rowBlockByNNZ(p.a, w.ranks)
		bt.partition = time.Since(t)
		sp.end()
	} else {
		sp = log.begin(setup, op, "pc_setup")
		t = time.Now()
		p.pc = newJacobi(p.a, 0, p.a.Rows)
		bt.pc = time.Since(t)
		sp.end()
	}

	sp = log.begin(setup, op, "warmup")
	t = time.Now()
	for _, m := range w.methods {
		s, err := w.solve(p, m, false)
		g.check(w.verify(cfg, g, p, s, err))
	}
	bt.warmup = time.Since(t)
	sp.end()

	bt.total = time.Since(t0)
	setup.end()
	return p, bt
}

// verify is the correctness gate of one solve.
func (w solveWorkload) verify(cfg runConfig, g *gate, p *solveProblem, s oneSolve, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", s.method, err)
	}
	if cfg.tamper != nil {
		cfg.tamper(s.res.X)
	}
	return g.checkIterate(s.method, s.res.Converged, p.a, s.res.X, p.b, solveRelTol)
}

// roundStats accumulates the timed section.
type roundStats struct {
	byMethod map[string]sample // untraced solves
	traced   map[string]sample // traced solves (traced pass only)
	rounds   sample            // wall time of one untraced round: every method once
	solves   map[string][]oneSolve
	wall     time.Duration
	nSolves  int
}

// runRounds solves round after round until the budget is spent (at least
// three rounds). In the traced pass rounds alternate untraced/traced, so the
// two medians that give the tracer's overhead see the same machine drift.
func (w solveWorkload) runRounds(cfg runConfig, budget float64, g *gate, log *spanLog, root *open, p *solveProblem) roundStats {
	st := roundStats{byMethod: map[string]sample{}, traced: map[string]sample{}, solves: map[string][]oneSolve{}}
	start := time.Now()
	for r := 0; r < 3 || time.Since(start).Seconds() < budget; r++ {
		traced := cfg.traced && r%2 == 1
		op := fmt.Sprintf("round-%d", r)
		round := log.begin(root, op, "round")
		t0 := time.Now()
		for i := range w.methods {
			m := w.methods[(i+r)%len(w.methods)]
			sp := log.begin(round, op+"-"+m, "solve")
			s, err := w.solve(p, m, traced)
			sp.end()
			g.check(w.verify(cfg, g, p, s, err))
			if err != nil {
				continue
			}
			st.nSolves++
			if traced {
				st.traced[m] = append(st.traced[m], s.elapsed.Seconds())
				st.solves[m] = append(st.solves[m], s)
			} else {
				st.byMethod[m] = append(st.byMethod[m], s.elapsed.Seconds())
			}
		}
		if !traced {
			st.rounds = append(st.rounds, time.Since(t0).Seconds())
		}
		round.end()
	}
	st.wall = time.Since(start)
	return st
}

func runSolveWorkload(cfg runConfig, g *gate, log *spanLog, notef func(string, ...any)) metrics {
	w := solveWorkloads[cfg.workload]
	root := log.begin(nil, "workload", "workload")
	defer root.end()

	var p *solveProblem
	var setups sample
	var bt buildTimes
	for rep := 0; rep < cfg.setupRepeats(); rep++ {
		p, bt = w.build(cfg, g, log, root, rep)
		setups = append(setups, bt.total.Seconds())
	}
	rows := p.a.Rows
	notef("operator: %d rows, %d nnz, %d-point, ranks=%d hop=%v; set-up built %d time(s)",
		rows, p.a.NNZ(), w.points, w.ranks, w.hop, len(setups))

	budget := cfg.seconds
	if cfg.traced {
		budget *= 0.5 // the rest of the traced pass is the kernel microtimings
	}
	st := w.runRounds(cfg, budget, g, log, root, p)
	for _, m := range w.methods {
		q1, q3 := st.byMethod[m].quartiles()
		notef("%-10s untraced n=%d median %.4fs quartiles [%.4f, %.4f]", m, len(st.byMethod[m]), st.byMethod[m].median(), q1, q3)
	}

	if !cfg.traced {
		p95, q := st.rounds.tail(0.95)
		notef("round (every method once): n=%d; job_p95_s is the %.0fth percentile (>= %d samples beyond it)", len(st.rounds), 100*q, tailSamples)
		return metrics{
			"setup_s":     setups.median(),
			"solve_s":     st.byMethod["pipe-pscg"].median(),
			"pcg_solve_s": st.byMethod["pcg"].median(),
			"jobs_per_s":  float64(st.nSolves) / st.wall.Seconds(),
			"job_p50_s":   st.rounds.median(),
			"job_p95_s":   p95,
			"peak_rss_mb": peakRSSMB(),
		}
	}

	out := metrics{
		"sparse.assemble_s":     0,
		"partition.build_s":     bt.partition.Seconds(),
		"precond.setup_s":       bt.pc.Seconds(),
		"krylov.pipecg_solve_s": st.byMethod["pipecg"].median(),
	}
	if !w.matrixFree {
		out["sparse.assemble_s"] = bt.problem.Seconds()
	}
	w.krylovLedger(out, st, p)
	if pipe := st.byMethod["pipe-pscg"].median(); pipe > 0 {
		out["krylov.speedup_vs_pcg"] = st.byMethod["pcg"].median() / pipe
		out["obs.tracer_overhead_share"] = st.traced["pipe-pscg"].median()/pipe - 1
	}
	kernelLedger(out, cfg, w, p)
	return out
}

// krylovLedger fills the krylov.* and solve-derived comm.* metrics from the
// traced solves: counts from the first PIPE-PsCG solve (they repeat exactly),
// phases as the max over ranks per solve and the median over solves.
func (w solveWorkload) krylovLedger(out metrics, st roundStats, p *solveProblem) {
	pipe := st.solves["pipe-pscg"]
	if len(pipe) == 0 {
		return
	}
	first := pipe[0]
	c := first.counters
	localRows := p.a.Rows
	if w.ranks > 1 {
		localRows = p.pt.Rows(0)
	}
	out["krylov.iterations"] = float64(first.res.Iterations)
	out["krylov.outer_iterations"] = float64(first.res.Outer)
	out["krylov.spmv_count"] = float64(c.SpMV)
	out["krylov.pc_count"] = float64(c.PCApply)
	out["krylov.allreduce_count"] = float64(c.Allreduce)
	out["krylov.iallreduce_count"] = float64(c.Iallreduce)
	out["krylov.reduce_words"] = float64(c.ReduceWords)
	if first.res.Iterations > 0 {
		it := float64(first.res.Iterations)
		out["krylov.flops_per_row_iter"] = c.Flops / (float64(localRows) * it)
		if w.ranks > 1 {
			out["comm.msgs_per_iter"] = float64(first.msgs) / it
			out["comm.words_per_iter"] = float64(c.ReduceWords) / it
		}
	}

	phase := func(solves []oneSolve, ph int) float64 {
		var s sample
		for _, sv := range solves {
			maxNS := int64(0)
			for _, sum := range sv.sums {
				maxNS = max(maxNS, sum.Phases[ph].TotalNS)
			}
			s = append(s, float64(maxNS)/1e9)
		}
		return s.median()
	}
	phases := map[string]int{
		"spmv": phSpMV, "pc_apply": phPCApply, "gram": phGram, "local_dots": phLocalDots,
		"recurrence_lc": phRecurrenceLC, "allreduce_wait": phAllreduceWait,
		"iallreduce_post": phIallreducePost, "halo_wait": phHaloWait,
	}
	for name, ph := range phases {
		out["krylov.phase_"+name+"_s"] = phase(pipe, ph)
	}
	// The solve span's self time: wall time minus what the busiest rank's
	// tracer attributed to any phase.
	var unattributed sample
	for _, sv := range pipe {
		busiest := int64(0)
		for _, sum := range sv.sums {
			total := int64(0)
			for _, st := range sum.Phases {
				total += st.TotalNS
			}
			busiest = max(busiest, total)
		}
		unattributed = append(unattributed, sv.elapsed.Seconds()-float64(busiest)/1e9)
	}
	out["krylov.unattributed_s"] = unattributed.median()
	solveS := st.traced["pipe-pscg"].median()
	out["krylov.pcg_phase_spmv_s"] = phase(st.solves["pcg"], phSpMV)
	out["krylov.pcg_phase_allreduce_wait_s"] = phase(st.solves["pcg"], phAllreduceWait)

	var hidden sample
	for _, sv := range pipe {
		var interval, wait int64
		for _, sum := range sv.sums {
			interval += sum.Overlap.IntervalNS
			wait += sum.Overlap.WaitNS
		}
		if interval > 0 {
			hidden = append(hidden, math.Max(0, 1-float64(wait)/float64(interval)))
		}
	}
	if w.ranks > 1 {
		out["comm.hidden_fraction"] = hidden.median()
		if solveS > 0 {
			out["comm.exposed_wait_share"] = out["krylov.phase_allreduce_wait_s"] / solveS
		}
	}
}
