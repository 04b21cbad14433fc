package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math"
	"time"

	"repro/internal/audit"
	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/precond"
	"repro/internal/sparse"
)

// jobEventCapacity and jobLedgerCapacity bound each rank's tracer rings for
// service jobs. Phase and overlap aggregates accumulate independently of ring
// size — only the raw event/reduction tails are bounded — and every retained
// job keeps its merged summary, so small rings keep RetainJobs × ranks memory
// negligible.
const (
	jobEventCapacity  = 64
	jobLedgerCapacity = 256
)

// cancelPanic unwinds a solver whose job context ended. The engine interface
// has no error returns on kernels, so cancellation travels the same way the
// comm fabric's fault errors do: a typed panic recovered at the job (or
// rank) boundary.
type cancelPanic struct{ err error }

// cancelEngine wraps an engine so every kernel call observes the job
// context: the products, ApplyPC and both reductions poll ctx and unwind
// with a cancelPanic once it is done. Cancellation therefore lands within
// one solver iteration. Everything else the embedded engine forwards itself,
// and the wrapper adds no arithmetic — the numerics (and the bit-identity
// guarantee against the CLI path) are untouched.
type cancelEngine struct {
	engine.Engine
	ctx context.Context
}

var _ engine.Engine = (*cancelEngine)(nil)

func (e *cancelEngine) poll() {
	select {
	case <-e.ctx.Done():
		panic(cancelPanic{e.ctx.Err()})
	default:
	}
}

func (e *cancelEngine) SpMV(dst, src []float64) { e.poll(); e.Engine.SpMV(dst, src) }

func (e *cancelEngine) ApplyPC(dst, src []float64) { e.poll(); e.Engine.ApplyPC(dst, src) }

func (e *cancelEngine) AllreduceSum(buf []float64) { e.poll(); e.Engine.AllreduceSum(buf) }

func (e *cancelEngine) IallreduceSum(buf []float64) engine.Request {
	e.poll()
	return e.Engine.IallreduceSum(buf)
}

func (e *cancelEngine) SpMVFusedDots(dst, src []float64, scale float64, ws [][]float64, dots []float64) {
	e.poll()
	e.Engine.SpMVFusedDots(dst, src, scale, ws, dots)
}

func (e *cancelEngine) SpMVPowers(dstR, dstU [][]float64, src []float64, scale float64) bool {
	e.poll()
	return e.Engine.SpMVPowers(dstR, dstU, src, scale)
}

// saneRel sanitizes a residual norm for the JSON event boundary:
// encoding/json refuses NaN and ±Inf, and an encoder error inside the NDJSON
// stream drops the event and tears the stream down. A non-finite norm comes
// back as (0, true) — omitted from the wire, flagged as diverged — so the
// event always encodes.
func saneRel(v float64) (rel float64, diverged bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, true
	}
	return v, false
}

// XHash is the FNV-1a 64 digest of an iterate's raw float64 bits — the
// bit-identity fingerprint the service returns with every result, so a
// client can compare a daemon solve against a CLI solve without shipping
// the vector.
func XHash(x []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// rhsFor resolves a job's right-hand side: the problem's canonical b, or —
// when the request carries a non-zero RHSSeed — a deterministic synthetic
// vector from a splitmix64 stream, uniform in [-1,1), in the operator's row
// ordering. The function is the ONLY producer of seeded RHS vectors, so a
// seed names the same system on the solo path, the comm path, and inside a
// coalesced block solve — the hook solverbench's -rhs mode uses to compare
// batched iterates bitwise against unbatched baselines.
func rhsFor(pr bench.Problem, seed uint64) []float64 {
	if seed == 0 {
		return pr.B
	}
	b := make([]float64, len(pr.B))
	s := seed
	for i := range b {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		b[i] = float64(z>>11)/(1<<52) - 1
	}
	return b
}

// run executes one accepted job end to end: pin the operator, check a
// preconditioner out of its pool, solve under the job deadline, classify the
// outcome, and fold the job's counters into the service aggregate.
func (m *Manager) run(j *Job) {
	defer func() { m.met.ObserveLatency(time.Since(j.submitted).Seconds()) }()

	timeout := m.cfg.MaxJobRuntime
	if j.Req.TimeoutMS > 0 {
		timeout = time.Duration(j.Req.TimeoutMS) * time.Millisecond
	}
	// The budget is per job, not per solve: time spent waiting in the queue
	// counts, so an overloaded service sheds deadline-blown work instead of
	// running it late.
	ctx, cancelTimeout := context.WithDeadline(j.ctx, j.submitted.Add(timeout))
	defer cancelTimeout()

	// A job cancelled while queued never touches the registry.
	if ctx.Err() != nil {
		m.finishJob(j, JobCanceled, nil, ctx.Err())
		return
	}

	j.mu.Lock()
	j.state = JobRunning
	j.runStart = time.Now()
	j.batchWidth = 1
	j.mu.Unlock()
	m.met.noteBatch(1)

	// Method "auto" delegates selection to the stability tuner: the decision
	// (made once, here — never mid-solve) names the concrete method, s and
	// replacement cadence this job runs, from the fingerprint's record when
	// one exists. The start event carries it so a streaming client sees the
	// selection before the first progress line.
	method := j.Req.Method
	startEv := Event{Type: "start", Job: j.ID, State: JobRunning, Method: method}
	if method == MethodAuto {
		dec := m.tuner.Resolve(j.Req)
		j.mu.Lock()
		j.tune = dec
		j.mu.Unlock()
		method = dec.Method
		startEv.TunedMethod = dec.Method
		startEv.TunerWarmStart = dec.WarmStart
	}
	j.emit(startEv)

	entry, err := m.reg.Acquire(j.Req.ProblemSpec)
	if err != nil {
		m.finishJob(j, JobFailed, nil, err)
		return
	}
	defer m.reg.Release(entry)
	pr := entry.Problem()

	meth, err := krylov.MethodByName(method)
	if err != nil {
		m.finishJob(j, JobFailed, nil, err)
		return
	}

	opt := bench.DefaultOptions(pr)
	opt.S = j.Req.S
	opt.MaxIter = j.Req.MaxIter
	if j.Req.RelTol > 0 {
		opt.RelTol = j.Req.RelTol
	}
	opt.ReplaceEvery = j.Req.ReplaceEvery
	if dec := j.tuneDecision(); dec != nil {
		opt.S = dec.S
		opt.ReplaceEvery = dec.ReplaceEvery
		// Match the audit harness: under the unpreconditioned norm the drift
		// probe's true ‖b−A·x‖/‖b‖ and the monitor's recurrence residual
		// estimate the same quantity, so their ratio is a clean drift signal.
		opt.Norm = krylov.NormUnpreconditioned
	}
	// Per-iteration progress events carry the recovery ledger alongside the
	// residual, so a stream shows degradation as it happens.
	var progressEng engine.Engine
	opt.Progress = func(hp krylov.HistPoint) {
		ev := Event{Type: "progress", Job: j.ID,
			Iteration: hp.Iteration, ReduceIndex: hp.ReduceIndex}
		// The monitor records the history point (and fires this hook) BEFORE
		// its divergence check, so a NaN/Inf residual reaches this boundary
		// on every divergent solve. json.Marshal fails on non-finite floats;
		// sanitize here so the event survives instead of tearing the stream.
		ev.RelRes, ev.Diverged = saneRel(hp.RelRes)
		if progressEng != nil {
			ev.Recoveries = progressEng.Counters().RecoveryEvents()
		}
		j.emit(ev)
	}

	if j.Req.Ranks <= 1 {
		m.runSeq(j, ctx, entry, pr, meth, opt, &progressEng)
	} else {
		m.runComm(j, ctx, entry, pr, meth, opt, &progressEng)
	}
}

// runSeq executes the job on the sequential reference engine — the default
// path, whose iterate is bit-identical to `pipescg -runtime seq`.
func (m *Manager) runSeq(j *Job, ctx context.Context, entry *Entry, pr bench.Problem,
	meth krylov.Method, opt krylov.Options, progressEng *engine.Engine) {
	var pc engine.Preconditioner
	if !meth.Unpreconditioned {
		var err error
		pc, err = entry.AcquirePC(j.Req.PC)
		if err != nil {
			m.finishJob(j, JobFailed, nil, err)
			return
		}
		defer entry.ReleasePC(j.Req.PC, pc)
	}

	eng := engine.NewSeq(pr.Operator(), pc)
	// The tracer's clock zero is its construction instant; the anchor pins
	// that instant on the wall axis so the stitcher can place rank-relative
	// phase events in the cross-process trace.
	anchor := time.Now()
	eng.Tr = obs.New(0, obs.WithCapacity(jobEventCapacity, jobLedgerCapacity))
	j.mu.Lock()
	j.solveStart, j.anchorNS = anchor, anchor.UnixNano()
	j.mu.Unlock()
	*progressEng = eng
	wrapped := &cancelEngine{Engine: eng, ctx: ctx}

	b := rhsFor(pr, j.Req.RHSSeed)
	// Auto jobs carry the audit harness's drift probe: every few monitor
	// checks it recomputes the true residual through the raw CSR kernel —
	// never the engine, so the job's counter ledger (and its bit-identity
	// with the CLI path) is untouched. The max true/recurrence ratio is the
	// tuner's stability signal and lands on the result event as DriftRatio.
	var da *audit.DriftAuditor
	if j.tuneDecision() != nil {
		da = audit.NewDriftAuditor(pr.A, b, opt.S, audit.DefaultParams())
		opt.Observe = da.Observe
	}

	res, err := m.solveRecovering(wrapped, b, meth.Solve, opt)
	unpermuteResult(res, pr.Perm)
	if da != nil {
		j.mu.Lock()
		j.driftRatio = da.Report().MaxRatio
		j.mu.Unlock()
	}
	sum := eng.Tr.Summary()
	j.mu.Lock()
	j.counters = *eng.Counters()
	j.obsSum = sum
	j.rankSums = []obs.Summary{sum}
	j.mu.Unlock()
	m.met.AddCounters(eng.Counters())
	m.met.AddObs(sum)
	m.classify(j, ctx, res, err)
}

// runComm executes the job on the in-process goroutine-rank runtime: the
// entry's cached nnz-balanced partition, a fresh fabric, rank-local
// preconditioners, and the shared kernel pool underneath. The fabric gets a
// receive deadline and the solver a wait deadline so a rank unwound by
// cancellation can never deadlock its peers.
func (m *Manager) runComm(j *Job, ctx context.Context, entry *Entry, pr bench.Problem,
	meth krylov.Method, opt krylov.Options, progressEng *engine.Engine) {
	var factory comm.PCFactory
	if !meth.Unpreconditioned {
		switch j.Req.PC {
		case "", "none":
		case "jacobi":
			factory = func(a *sparse.CSR, lo, hi int) engine.Preconditioner {
				return precond.NewJacobi(a, lo, hi)
			}
		case "sor":
			factory = func(a *sparse.CSR, lo, hi int) engine.Preconditioner {
				return precond.NewSSOR(a, lo, hi, 1.0, 1)
			}
		default:
			m.finishJob(j, JobFailed, nil,
				fmt.Errorf("serve: ranks>1 supports rank-local PCs only (jacobi, sor, none), got %q", j.Req.PC))
			return
		}
	}
	ranks := j.Req.Ranks
	pt := entry.Partition(ranks)
	f := comm.NewFabric(ranks, 0).WithRecvTimeout(2*time.Second, 3)
	if m.cfg.testFabricFault != nil {
		// Test hook: inject fabric faults (e.g. the PR 2 straggler jitter)
		// into service solves so the skew detector can be validated end to
		// end against a known-degraded rank.
		f = f.WithFault(m.cfg.testFabricFault)
	}
	engines := comm.NewEnginesOp(f, pr.A, pr.Operator(), pt, factory)
	anchor := time.Now()
	tracers := make([]*obs.Tracer, ranks)
	for r, e := range engines {
		tracers[r] = obs.New(r, obs.WithCapacity(jobEventCapacity, jobLedgerCapacity))
		e.SetTracer(tracers[r])
	}
	j.mu.Lock()
	j.solveStart, j.anchorNS = anchor, anchor.UnixNano()
	j.mu.Unlock()
	bs := comm.Scatter(pt, rhsFor(pr, j.Req.RHSSeed))
	opt.WaitDeadline = 10 * time.Second
	*progressEng = engines[0]

	// Only rank 0 streams progress; the checks are collective-consistent, so
	// one rank's view is the job's view.
	rankOpts := make([]krylov.Options, ranks)
	for r := range rankOpts {
		rankOpts[r] = opt
		if r != 0 {
			rankOpts[r].Progress = nil
		}
	}

	results := make([]*krylov.Result, ranks)
	errs := comm.RunErr(engines, func(r int, e *comm.Engine) error {
		wrapped := &cancelEngine{Engine: e, ctx: ctx}
		res, err := m.solveRecovering(wrapped, bs[r], meth.Solve, rankOpts[r])
		results[r] = res
		return err
	})

	agg := engines[0].Counters()
	sums := make([]obs.Summary, ranks)
	for r, tr := range tracers {
		sums[r] = tr.Summary()
	}
	sum := obs.MergeSummaries(sums)
	// Per-rank skew analysis: purely observational (it reads finished
	// summaries), exported as solverd_rank_skew and, past the threshold,
	// flagged in the flight recorder.
	transit := f.TransitStats()
	transitNS := make([]int64, len(transit))
	for r, tr := range transit {
		transitNS[r] = tr.MeanNS()
	}
	skew := obs.AnalyzeSkewTransit(sums, transitNS)
	j.mu.Lock()
	j.counters = *agg
	j.obsSum = sum
	j.rankSums = sums
	j.skew = &skew
	j.mu.Unlock()
	m.met.noteSkew(skew)
	if skew.StragglerRank >= 0 && skew.MaxScore >= m.cfg.SkewThreshold {
		m.flight.RecordEvent(obs.FlightEvent{
			UnixNS: time.Now().UnixNano(), Kind: "rank_skew", TraceID: j.TraceID(),
			Attrs: map[string]string{
				"job":            j.ID,
				"straggler_rank": fmt.Sprintf("%d", skew.StragglerRank),
				"score":          fmt.Sprintf("%.3f", skew.MaxScore),
			},
		})
	}
	// Service-level aggregate folds every rank's counters and spans.
	for _, e := range engines {
		m.met.AddCounters(e.Counters())
	}
	m.met.AddObs(sum)
	if err := f.Close(); err != nil {
		// A cancelled SPMD solve legitimately leaves mailbox entries behind;
		// count it, don't fail the drain.
		m.met.fabricLeaks.Add(1)
	}

	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	res := results[0]
	if res != nil && firstErr == nil {
		// Return the assembled global iterate on the job result.
		xs := make([][]float64, ranks)
		for r := range xs {
			if results[r] == nil {
				res = nil
				break
			}
			xs[r] = results[r].X
		}
		if res != nil {
			assembled := *results[0]
			assembled.X = comm.Gather(pt, xs)
			res = &assembled
		}
	}
	unpermuteResult(res, pr.Perm)
	m.classify(j, ctx, res, firstErr)
}

// unpermuteResult maps a solve's iterate back to the operator's source row
// ordering when the registry reordered the system (RCM on uploads). It runs
// before classify, so XHash and any returned X are in the ordering the
// client uploaded.
func unpermuteResult(res *krylov.Result, perm []int) {
	if res == nil || res.X == nil || perm == nil {
		return
	}
	x := make([]float64, len(res.X))
	sparse.InversePermuteVec(x, res.X, perm)
	res.X = x
}

// solveRecovering invokes the solver, converting a cancellation unwind back
// into an error. Other panics propagate (seq path) or are captured by
// comm.RunErr (comm path).
func (m *Manager) solveRecovering(e engine.Engine, b []float64, solver krylov.Solver,
	opt krylov.Options) (res *krylov.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			cp, ok := p.(cancelPanic)
			if !ok {
				panic(p)
			}
			res, err = nil, cp.err
		}
	}()
	return solver(e, b, opt)
}

// classify maps a solve outcome onto the job's terminal state and emits the
// result event.
func (m *Manager) classify(j *Job, ctx context.Context, res *krylov.Result, err error) {
	switch {
	case ctx.Err() != nil:
		m.finishJob(j, JobCanceled, res, ctx.Err())
	case err != nil:
		m.finishJob(j, JobFailed, res, err)
	case res != nil && res.Converged:
		m.finishJob(j, JobConverged, res, nil)
	default:
		m.finishJob(j, JobFailed, res, fmt.Errorf("serve: solve ended without convergence"))
	}
}

// finishJob records the terminal state, tallies metrics and emits the result
// event (with the iterate's bit-fingerprint, and the iterate itself when the
// submission asked for it; otherwise the iterate is dropped here).
func (m *Manager) finishJob(j *Job, state JobState, res *krylov.Result, err error) {
	ev := Event{Type: "result", Job: j.ID, State: state}
	if res != nil {
		ev.Method = res.Method
		ev.Converged = res.Converged
		ev.Iterations = res.Iterations
		ev.RelRes, ev.Diverged = saneRel(res.RelRes)
		ev.Diverged = ev.Diverged || res.Diverged
		if res.X != nil {
			ev.XHash = XHash(res.X)
			if j.Req.IncludeX {
				ev.X = res.X
			} else {
				// Nothing reads the iterate again: retain the result
				// without it, so a finished job costs its scalars and
				// history, not n floats.
				kept := *res
				kept.X = nil
				res = &kept
			}
		}
	}
	if err != nil {
		ev.Error = err.Error()
	}
	j.mu.Lock()
	j.res, j.err, j.xHash = res, err, ev.XHash
	overlap := j.obsSum.Overlap
	if j.batchWidth > 1 {
		ev.BatchWidth = j.batchWidth
	}
	dec, drift := j.tune, j.driftRatio
	runStart, coalesceAt, coalesceNS := j.runStart, j.coalesceAt, j.coalesceNS
	anchorNS, rankSums, skew := j.anchorNS, j.rankSums, j.skew
	j.mu.Unlock()
	if overlap.Posted > 0 {
		ev.OverlapEfficiency = overlap.HiddenFraction()
	}
	if dec != nil {
		ev.TunedMethod = dec.Method
		ev.TunerWarmStart = dec.WarmStart
		if drift > 0 && !math.IsInf(drift, 0) {
			ev.DriftRatio = drift
		}
		// A canceled job teaches the tuner nothing — cancellation is
		// operational, not numerical — so only real outcomes are recorded.
		if state != JobCanceled {
			hidden := -1.0 // unmeasured: no posted reductions
			if overlap.Posted > 0 {
				hidden = overlap.HiddenFraction()
			}
			m.tuner.Record(dec, res, drift, hidden)
		}
	}
	m.met.countJob(state)

	lvl := slog.LevelInfo
	if state != JobConverged {
		lvl = slog.LevelWarn
	}
	attrs := []any{
		"job", j.ID, "trace_id", j.TraceID(),
		"method", j.Req.Method, "ranks", j.Req.Ranks,
		"outcome", string(state),
		"duration", time.Since(j.submitted).Round(time.Microsecond),
	}
	if res != nil {
		attrs = append(attrs, "iterations", res.Iterations)
	}
	if overlap.Posted > 0 {
		attrs = append(attrs, "overlap_efficiency", overlap.HiddenFraction())
	}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
	}
	m.cfg.Log.Log(context.Background(), lvl, "job finished", attrs...)

	// Reconstruct the job's span tree and fold it into the flight recorder
	// before Done closes, so a client that observed completion can already
	// read the record from /v1/debug/flight.
	traceID := j.TraceID()
	now := time.Now()
	jobSpanID := j.tctx.SpanID.String()
	spans := []obs.TraceSpan{{
		TraceID: traceID, SpanID: jobSpanID, ParentID: j.parentSpan,
		Name: "job", Service: "solverd",
		StartUnixNS: j.submitted.UnixNano(), EndUnixNS: now.UnixNano(),
		Attrs: map[string]string{"job": j.ID, "method": j.Req.Method, "outcome": string(state)},
	}}
	if !runStart.IsZero() {
		spans = append(spans, obs.TraceSpan{
			TraceID: traceID, SpanID: m.ids.NewSpanID().String(), ParentID: jobSpanID,
			Name: "queue_wait", Service: "solverd",
			StartUnixNS: j.submitted.UnixNano(), EndUnixNS: runStart.UnixNano(),
		})
	}
	if !coalesceAt.IsZero() {
		spans = append(spans, obs.TraceSpan{
			TraceID: traceID, SpanID: m.ids.NewSpanID().String(), ParentID: jobSpanID,
			Name: "coalesce_wait", Service: "solverd",
			StartUnixNS: coalesceAt.UnixNano(), EndUnixNS: coalesceAt.UnixNano() + coalesceNS,
		})
	}
	solveSpanID := ""
	if anchorNS != 0 {
		solveSpanID = m.ids.NewSpanID().String()
		sa := map[string]string{"ranks": fmt.Sprintf("%d", j.Req.Ranks)}
		if skew != nil && skew.StragglerRank >= 0 {
			sa["skew_max"] = fmt.Sprintf("%.3f", skew.MaxScore)
			sa["skew_rank"] = fmt.Sprintf("%d", skew.StragglerRank)
		}
		spans = append(spans, obs.TraceSpan{
			TraceID: traceID, SpanID: solveSpanID, ParentID: jobSpanID,
			Name: "solve", Service: "solverd",
			StartUnixNS: anchorNS, EndUnixNS: now.UnixNano(), Attrs: sa,
		})
	}
	m.flight.RecordJob(obs.JobRecord{
		Job: j.ID, TraceID: traceID, Outcome: string(state),
		Spans: spans, SolveSpanID: solveSpanID,
		AnchorUnixNS: anchorNS, Ranks: rankSums,
	})

	j.finish(state, ev)
	// Completion is a retention event: without this, a backlog finishing
	// after the last submission (every drain, every Kill) keeps jobs and
	// their idempotency keys past the retention bound forever — Submit's
	// trim stops at the live oldest job and never runs again.
	m.trim()
}
