package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/workload"
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

// jobTracer builds one rank's bounded tracer for a service job.
func jobTracer(rank int) *obs.Tracer {
	return obs.New(rank, obs.WithCapacity(jobEventCapacity, jobLedgerCapacity))
}

// driftProbeEvery is the auto jobs' drift-probe cadence in monitor checks,
// the audit sweep's own.
const driftProbeEvery = 4

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

func (e *cancelEngine) SpMVFusedDots(dst, src []float64, scale float64, pc bool, ws [][]float64, dots []float64) {
	e.poll()
	e.Engine.SpMVFusedDots(dst, src, scale, pc, ws, dots)
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
func rhsFor(pr workload.Problem, seed uint64) []float64 {
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

// deadlineContext bounds a job's context by its runtime budget. The budget is
// per job, not per solve: it is anchored at submission, so time spent waiting
// in the queue counts and an overloaded service sheds deadline-blown work
// instead of running it late.
func (m *Manager) deadlineContext(j *Job) (context.Context, context.CancelFunc) {
	timeout := m.cfg.MaxJobRuntime
	if j.Req.TimeoutMS > 0 {
		timeout = time.Duration(j.Req.TimeoutMS) * time.Millisecond
	}
	return context.WithDeadline(j.ctx, j.submitted.Add(timeout))
}

// solveOptions lays a request's solver parameters over the problem defaults.
func solveOptions(pr workload.Problem, req SolveRequest) krylov.Options {
	opt := workload.DefaultOptions(pr)
	opt.S = req.S
	opt.MaxIter = req.MaxIter
	if req.RelTol > 0 {
		opt.RelTol = req.RelTol
	}
	opt.ReplaceEvery = req.ReplaceEvery
	return opt
}

// progressHook returns the job's per-iteration progress emitter. Events carry
// the recovery ledger alongside the residual, so a stream shows degradation
// as it happens; *eng is the engine whose counters hold that ledger, set by
// the runner before the solve starts.
func (j *Job) progressHook(eng *engine.Engine) func(krylov.HistPoint) {
	return func(hp krylov.HistPoint) {
		ev := Event{Type: "progress", Job: j.ID,
			Iteration: hp.Iteration, ReduceIndex: hp.ReduceIndex}
		// The monitor records the history point (and fires this hook) BEFORE
		// its divergence check, so a NaN/Inf residual reaches this boundary
		// on every divergent solve. json.Marshal fails on non-finite floats;
		// sanitize here so the event survives instead of tearing the stream.
		ev.RelRes, ev.Diverged = saneRel(hp.RelRes)
		if *eng != nil {
			ev.Recoveries = (*eng).Counters().RecoveryEvents()
		}
		j.emit(ev)
	}
}

// setAnchor pins the instant the solve's tracers were built (their clock
// zero) on the wall axis, so the stitcher can place rank-relative phase
// events in the cross-process trace.
func (j *Job) setAnchor(t time.Time) {
	j.mu.Lock()
	j.anchorNS = t.UnixNano()
	j.mu.Unlock()
}

// run executes one accepted job end to end: pin the operator, check a
// preconditioner out of its pool, solve under the job deadline, classify the
// outcome, and fold the job's counters into the service aggregate.
func (m *Manager) run(j *Job) {
	defer func() { m.met.ObserveLatency(time.Since(j.submitted).Seconds()) }()

	ctx, cancelTimeout := m.deadlineContext(j)
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

	opt := solveOptions(pr, j.Req)
	if dec := j.tuneDecision(); dec != nil {
		opt.S = dec.S
		opt.ReplaceEvery = dec.ReplaceEvery
		// Match the audit harness: under the unpreconditioned norm the drift
		// probe's true ‖b−A·x‖/‖b‖ and the monitor's recurrence residual
		// estimate the same quantity, so their ratio is a clean drift signal.
		opt.Norm = krylov.NormUnpreconditioned
	}
	var progressEng engine.Engine
	opt.Progress = j.progressHook(&progressEng)

	if j.Req.Ranks <= 1 {
		m.runSeq(j, ctx, entry, pr, meth, opt, &progressEng)
	} else {
		m.runComm(j, ctx, entry, pr, meth, opt, &progressEng)
	}
}

// runSeq executes the job on the sequential reference engine — the default
// path, whose iterate is bit-identical to `pipescg -runtime seq`.
func (m *Manager) runSeq(j *Job, ctx context.Context, entry *Entry, pr workload.Problem,
	meth krylov.Method, opt krylov.Options, progressEng *engine.Engine) {
	pcName := workload.EffectivePC(meth, j.Req.PC)
	pc, err := entry.AcquirePC(pcName)
	if err != nil {
		m.finishJob(j, JobFailed, nil, err)
		return
	}
	defer entry.ReleasePC(pcName, pc)

	eng := engine.NewSeq(pr.Operator(), pc)
	j.setAnchor(time.Now())
	eng.Tr = jobTracer(0)
	*progressEng = eng
	wrapped := &cancelEngine{Engine: eng, ctx: ctx}

	b := rhsFor(pr, j.Req.RHSSeed)
	// Auto jobs carry the drift probe: every few monitor checks it
	// recomputes the true residual through the raw CSR kernel — never the
	// engine, so the job's counter ledger (and its bit-identity with the CLI
	// path) is untouched. The max true/recurrence ratio is the tuner's
	// stability signal and lands on the result event as DriftRatio.
	var probe *workload.DriftProbe
	if j.tuneDecision() != nil {
		probe = workload.NewDriftProbe(pr.A, b, driftProbeEvery)
		opt.Observe = probe.Observe
	}

	res, err := solveRecovering(wrapped, b, meth.Solve, opt)
	unpermuteResult(res, pr)
	if probe != nil {
		j.mu.Lock()
		j.driftRatio = probe.MaxRatio
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

// runComm executes the job on the in-process goroutine-rank runtime through
// the shared SPMD driver — the same function the CLIs and the audit call —
// with the entry's cached nnz-balanced partition, a fresh fabric, and the
// shared kernel pool underneath. The fabric gets a receive deadline and the
// solver a wait deadline so a rank unwound by cancellation can never
// deadlock its peers.
func (m *Manager) runComm(j *Job, ctx context.Context, entry *Entry, pr workload.Problem,
	meth krylov.Method, opt krylov.Options, progressEng *engine.Engine) {
	ranks := j.Req.Ranks
	f := comm.NewFabric(ranks, 0).WithRecvTimeout(2*time.Second, 3)
	if m.cfg.testFabricFault != nil {
		// Test hook: inject fabric faults (e.g. the PR 2 straggler jitter)
		// into service solves so the skew detector can be validated end to
		// end against a known-degraded rank.
		f = f.WithFault(m.cfg.testFabricFault)
	}
	opt.WaitDeadline = 10 * time.Second
	// Every rank solves behind the cancellation wrapper; rank 0, the one
	// rank that streams progress, lends its counters to the progress hook.
	solve := meth.Solve
	meth.Solve = func(e engine.Engine, b []float64, opt krylov.Options) (*krylov.Result, error) {
		if e.(*comm.Engine).Rank() == 0 {
			*progressEng = e
		}
		return solveRecovering(&cancelEngine{Engine: e, ctx: ctx}, b, solve, opt)
	}
	tracer := func(rank int) *obs.Tracer {
		if rank == 0 {
			j.setAnchor(time.Now())
		}
		return jobTracer(rank)
	}
	out, err := workload.SPMD{Fabric: f, Part: entry.Partition(ranks), PC: j.Req.PC, Tracer: tracer}.
		Run(pr, meth, rhsFor(pr, j.Req.RHSSeed), opt)
	if err != nil {
		m.finishJob(j, JobFailed, nil, fmt.Errorf("serve: ranks>1 supports %w", err))
		return
	}

	sum := obs.MergeSummaries(out.Summaries)
	// Per-rank skew analysis: purely observational (it reads finished
	// summaries), exported as solverd_rank_skew and, past the threshold,
	// flagged in the flight recorder.
	skew := obs.AnalyzeSkewTransit(out.Summaries, out.TransitNS)
	j.mu.Lock()
	j.counters = out.Counters[0]
	j.obsSum = sum
	j.rankSums = out.Summaries
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
	for r := range out.Counters {
		m.met.AddCounters(&out.Counters[r])
	}
	m.met.AddObs(sum)
	if out.Leak != nil {
		// A cancelled SPMD solve legitimately leaves mailbox entries behind;
		// count it, don't fail the drain.
		m.met.fabricLeaks.Add(1)
	}

	_, firstErr := out.FirstErr()
	unpermuteResult(out.Res, pr)
	m.classify(j, ctx, out.Res, firstErr)
}

// unpermuteResult maps a solve's iterate back to the operator's source row
// ordering when the registry reordered the system (RCM on uploads). It runs
// before classify, so XHash and any returned X are in the ordering the
// client uploaded.
func unpermuteResult(res *krylov.Result, pr workload.Problem) {
	if res != nil {
		res.X = pr.Unpermute(res.X)
	}
}

// solveRecovering invokes the solver, converting a cancellation unwind back
// into an error. Other panics propagate (seq path) or are captured by
// comm.RunErr (comm path).
func solveRecovering(e engine.Engine, b []float64, solver krylov.Solver,
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
