package main

// adapter.go is the ONLY file of the benchmark that imports repro/internal/...
// Every other file talks to the program through the functions and aliases
// declared here, or through the HTTP wire API with the benchmark's own JSON
// structs (service.go). A refactor of the program therefore breaks the
// benchmark in this one file, and only where it moves one of the old, low
// surfaces listed in README.md.

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/internal/blockcg"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/vec"
)

type (
	csrMatrix   = sparse.CSR
	operator    = engine.Operator
	precondT    = engine.Preconditioner
	solveResult = krylov.Result
	counters    = trace.Counters
	tracer      = obs.Tracer
	obsSummary  = obs.Summary
	rowPart     = partition.Partition
	multiVec    = vec.Multi
)

// Phase indices of obs.Summary.Phases the ledger reads.
const (
	phSpMV           = int(obs.PhaseSpMV)
	phPCApply        = int(obs.PhasePCApply)
	phLocalDots      = int(obs.PhaseLocalDots)
	phGram           = int(obs.PhaseGram)
	phRecurrenceLC   = int(obs.PhaseRecurrenceLC)
	phAllreduceWait  = int(obs.PhaseAllreduceWait)
	phIallreducePost = int(obs.PhaseIallreducePost)
	phHaloWait       = int(obs.PhaseHaloWait)
)

func newTracer(rank int) *tracer { return obs.New(rank) }

// --- problems ---------------------------------------------------------------

// poisson assembles the n³ Poisson operator with the 7- or 125-point
// stencil. matrixFree additionally returns the stencil operator engines
// should apply (7-point only); the CSR is always built because Jacobi, the
// partition and the raw residual check read it.
func poisson(n, points int, matrixFree bool) (a *csrMatrix, op operator) {
	st := grid.Star7
	if points == 125 {
		st = grid.Box125
	}
	g := grid.NewCube(n, st)
	a = g.Laplacian()
	op = a
	if matrixFree {
		if s, ok := g.MatrixFree(); ok {
			op = s
		}
	}
	return a, op
}

// stencilFused applies the matrix-free operator's fused SpMV+dot kernel over
// all rows (the kernel PIPE-PsCG's powers block calls).
func stencilFused(op operator, y, x []float64, w []float64, dots []float64) {
	rows, _ := op.Dims()
	op.(engine.FusedOperator).MulVecFused(y, x, 0, rows, 0, 1, [][]float64{w}, dots)
}

func thermal2(scale int) *csrMatrix { return synth.Thermal2(scale).A }

func onesRHS(a *csrMatrix) []float64 { return grid.OnesRHS(a) }

func laplacian2D(n int) *csrMatrix { return grid.NewSquare(n, grid.Star5).Laplacian() }

func permuteSym(a *csrMatrix, perm []int) *csrMatrix { return sparse.PermuteSym(a, perm) }

func writeMatrixMarket(w io.Writer, a *csrMatrix) error {
	return sparse.WriteMatrixMarket(w, a)
}

func newJacobi(a *csrMatrix, lo, hi int) precondT { return precond.NewJacobi(a, lo, hi) }

// --- kernels ----------------------------------------------------------------

func setWorkers(n int) { par.SetWorkers(n) }
func poolWorkers() int { return par.Default().Workers() }
func poolRegion(n int) { par.Default().ForChunks(n, func(int) {}) }

func vecDot(x, y []float64) float64               { return vec.Dot(x, y) }
func vecAxpy(y []float64, a float64, x []float64) { vec.Axpy(y, a, x) }
func newMulti(n, s int) multiVec                  { return vec.NewMulti(n, s) }
func gramLocal(dst []float64, p, q multiVec)      { vec.GramLocal(dst, p, q) }
func dotsAgainst(dst, x []float64, q multiVec)    { vec.DotsAgainst(dst, x, q) }
func pipelinedUpdate(dst, src multiVec, m []multiVec, a []float64) {
	vec.PipelinedUpdate(dst, src, m, a)
}

// --- partition --------------------------------------------------------------

func rowBlockByNNZ(a *csrMatrix, p int) rowPart { return partition.RowBlockByNNZ(a, p) }

// haloStats builds the halo plans and returns the total number of ghost
// columns received and the max/mean nonzero imbalance over ranks.
func haloStats(a *csrMatrix, pt rowPart) (haloCols int, nnzImbalance float64) {
	for _, h := range partition.BuildHalos(a, pt) {
		for _, cols := range h.Recv {
			haloCols += len(cols)
		}
	}
	maxNNZ := 0
	for r := 0; r < pt.P; r++ {
		if nnz := a.RowPtr[pt.Hi(r)] - a.RowPtr[pt.Lo(r)]; nnz > maxNNZ {
			maxNNZ = nnz
		}
	}
	return haloCols, float64(maxNNZ) * float64(pt.P) / float64(a.NNZ())
}

// --- solves -----------------------------------------------------------------

func solverByName(method string) krylov.Solver {
	switch method {
	case "pcg":
		return krylov.PCG
	case "pipecg":
		return krylov.PIPECG
	case "pipe-pscg":
		return krylov.PIPEPSCG
	}
	panic("benchmark: unknown method " + method)
}

const solveRelTol = 1e-5 // krylov.Defaults(): the paper's tolerance, s=3

// seqSolve runs one solve on the sequential engine. tr may be nil (untraced).
func seqSolve(op operator, pc precondT, method string, b []float64, tr *tracer) (*solveResult, counters, error) {
	e := engine.NewSeq(op, pc)
	e.Tr = tr
	res, err := solverByName(method)(e, b, krylov.Defaults())
	return res, e.C, err
}

// commRun is one solve on the goroutine-rank runtime.
type commRun struct {
	res      *solveResult // rank 0's result with X gathered to the global iterate
	counters counters     // rank 0's ledger
	msgs     int64        // fabric messages sent by all ranks
	sums     []obsSummary // per rank, when traced
	elapsed  time.Duration
}

// commSolve builds a fresh fabric and engines (untimed, as cmd/overlap does),
// then times the SPMD solve alone.
func commSolve(a *csrMatrix, op operator, pt rowPart, hop time.Duration, method string, b []float64, traced bool) (commRun, error) {
	f := comm.NewFabric(pt.P, hop)
	engines := comm.NewEnginesOp(f, a, op, pt, func(a *sparse.CSR, lo, hi int) engine.Preconditioner {
		return precond.NewJacobi(a, lo, hi)
	})
	var tracers []*tracer
	if traced {
		tracers = make([]*tracer, pt.P)
		for r, e := range engines {
			tracers[r] = obs.New(r)
			e.SetTracer(tracers[r])
		}
	}
	bs := comm.Scatter(pt, b)
	results := make([]*solveResult, pt.P)
	solve := solverByName(method)
	start := time.Now()
	errs := comm.RunErr(engines, func(r int, e *comm.Engine) error {
		res, err := solve(e, bs[r], krylov.Defaults())
		results[r] = res
		return err
	})
	run := commRun{elapsed: time.Since(start), counters: *engines[0].Counters()}
	for _, t := range f.TransitStats() {
		run.msgs += t.Msgs
	}
	if err := f.Close(); err != nil {
		return run, fmt.Errorf("fabric close: %w", err)
	}
	for r, err := range errs {
		if err != nil {
			return run, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	xs := make([][]float64, pt.P)
	for r, res := range results {
		xs[r] = res.X
	}
	gathered := *results[0]
	gathered.X = comm.Gather(pt, xs)
	run.res = &gathered
	for _, t := range tracers {
		run.sums = append(run.sums, t.Summary())
	}
	return run, nil
}

// commProbe times the comm primitives directly on a P-rank fabric: calls
// blocking allreduces of one word, then calls posted reductions (post time
// and post→complete time apart), then calls halo SpMVs. Returned per call,
// as seen by rank 0.
type commTimes struct {
	allreduce, iallreducePost, iallreduceComplete, haloSpMV []time.Duration
}

func commProbe(a *csrMatrix, op operator, pt rowPart, hop time.Duration, calls int) commTimes {
	f := comm.NewFabric(pt.P, hop)
	engines := comm.NewEnginesOp(f, a, op, pt, nil)
	var out commTimes
	comm.Run(engines, func(r int, e *comm.Engine) {
		src := make([]float64, e.NLocal())
		dst := make([]float64, e.NLocal())
		for i := range src {
			src[i] = 1
		}
		buf := []float64{1}
		for i := 0; i < calls; i++ {
			e.Barrier()
			t0 := time.Now()
			e.AllreduceSum(buf)
			d := time.Since(t0)
			if r == 0 {
				out.allreduce = append(out.allreduce, d)
			}
		}
		for i := 0; i < calls; i++ {
			e.Barrier()
			t0 := time.Now()
			req := e.IallreduceSum(buf)
			post := time.Since(t0)
			req.Wait()
			d := time.Since(t0)
			if r == 0 {
				out.iallreducePost = append(out.iallreducePost, post)
				out.iallreduceComplete = append(out.iallreduceComplete, d)
			}
		}
		for i := 0; i < calls; i++ {
			e.Barrier()
			t0 := time.Now()
			e.SpMV(dst, src)
			d := time.Since(t0)
			if r == 0 {
				out.haloSpMV = append(out.haloSpMV, d)
			}
		}
	})
	f.Close() // nothing is left in flight after the last barrier-separated call
	return out
}

// gangSolve runs k right-hand sides as one blockcg gang on a sequential
// engine and returns the per-column results.
func gangSolve(op operator, pc precondT, method string, bs [][]float64) ([]*solveResult, error) {
	cols := make([]blockcg.Column, len(bs))
	for i, b := range bs {
		cols[i] = blockcg.Column{B: b, Opt: krylov.Defaults()}
	}
	out := make([]*solveResult, len(bs))
	for i, r := range blockcg.Solve(engine.NewSeq(op, pc), solverByName(method), cols) {
		if r.Err != nil {
			return nil, r.Err
		}
		out[i] = r.Res
	}
	return out, nil
}

// simSpeedup is the modeled PCG÷PIPE-PsCG time ratio at the given node count
// on the calibrated Cray XC40 stand-in — exact-repeat, ties the ledger to the
// paper's Fig. 1.
func simSpeedup(a *csrMatrix, b []float64, nodes int) (float64, error) {
	m := sim.CrayXC40()
	total := func(method string) (float64, error) {
		e := sim.NewEngine(a, precond.NewJacobi(a, 0, a.Rows))
		res, err := solverByName(method)(e, b, krylov.Defaults())
		if err != nil {
			return 0, err
		}
		if !res.Converged {
			return 0, fmt.Errorf("sim %s did not converge", method)
		}
		return e.Evaluate(m, nodes*m.CoresPerNode).Total, nil
	}
	pcg, err := total("pcg")
	if err != nil {
		return 0, err
	}
	pipe, err := total("pipe-pscg")
	if err != nil {
		return 0, err
	}
	return pcg / pipe, nil
}

// spanPairNS times n Begin/End pairs on a live tracer.
func spanPairNS(n int) float64 {
	tr := obs.New(0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.End(tr.Begin(obs.PhaseSpMV))
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// --- services ---------------------------------------------------------------

// daemon is one in-process solverd on a loopback socket.
type daemon struct {
	url  string
	stop func()
}

type daemonOptions struct {
	shard          string
	coalesceWidth  int
	coalesceWindow time.Duration
	flightJobs     int
	traceSeed      uint64
}

func startDaemon(o daemonOptions) (*daemon, error) {
	l, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	s := serve.New(serve.Config{
		ShardID:        o.shard,
		CoalesceWidth:  o.coalesceWidth,
		CoalesceWindow: o.coalesceWindow,
		FlightJobs:     o.flightJobs,
		TraceSeed:      o.traceSeed,
		Log:            slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	done := make(chan struct{})
	go func() { defer close(done); s.Serve(l) }()
	return &daemon{url: "http://" + l.Addr().String(), stop: func() {
		s.Kill()
		<-done
	}}, nil
}

type shardAddr struct{ name, url string }

// startRouter fronts the shards with an in-process solverouter.
func startRouter(shards []shardAddr, flightJobs int, traceSeed uint64) (*daemon, error) {
	cfg := cluster.RouterConfig{
		FlightJobs: flightJobs, TraceSeed: traceSeed,
		Log: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	for _, sh := range shards {
		cfg.Shards = append(cfg.Shards, cluster.ShardConfig{Name: sh.name, URL: sh.url})
	}
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		return nil, err
	}
	l, err := listenLoopback()
	if err != nil {
		rt.Close()
		return nil, err
	}
	hs := &http.Server{Handler: rt.Handler()}
	done := make(chan struct{})
	go func() { defer close(done); hs.Serve(l) }()
	return &daemon{url: "http://" + l.Addr().String(), stop: func() {
		hs.Close()
		<-done
		rt.Close()
	}}, nil
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
