package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math"
	"time"

	"repro/internal/blockcg"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/trace"
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
// the vector. The bits go to the hash through one reused 4 KiB block, so
// the digest is that of the little-endian byte stream, one Write per block.
func XHash(x []float64) string {
	h := fnv.New64a()
	var buf [4096]byte
	for len(x) > 0 {
		n := min(len(x), len(buf)/8)
		for i, v := range x[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		h.Write(buf[:8*n])
		x = x[n:]
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

// progressHook returns the job's per-iteration progress emitter, an
// Options.Observe hook that reads only the history point. It is also the
// job's cancellation point: once ctx is done it unwinds the solve with an
// engine.Abort carrying ctx.Err(), recovered at the job, column or rank
// boundary. Every solver checks convergence after its posted reduction's
// Wait, so the unwind leaves no reduction in flight, and cancellation lands
// within one (outer) iteration. Events carry the recovery ledger alongside
// the residual, so a stream shows degradation as it happens; *eng is the
// engine whose counters hold that ledger, set by the runner before the
// solve starts.
func (j *Job) progressHook(ctx context.Context, eng *engine.Engine) func(krylov.HistPoint, []float64) {
	return func(hp krylov.HistPoint, _ []float64) {
		if err := ctx.Err(); err != nil {
			panic(engine.Abort{Err: err})
		}
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

// outcome is what one job's execution leaves behind: the solver result and
// error, one counter ledger per rank (the job reports rank 0's), the
// per-rank tracer summaries and their merge, a multi-rank solve's skew
// analysis, the drift
// probe's max true/recurrence ratio, the wall instant the tracers' clock
// zero maps to (for the stitcher), and the tuner's decision for an auto
// job. A job that never reached the solver carries at most its error and
// decision.
type outcome struct {
	res      *krylov.Result
	err      error
	ledgers  []trace.Counters
	sums     []obs.Summary
	sum      obs.Summary
	skew     *obs.SkewReport
	drift    float64
	anchorNS int64
	tune     *tuneDecision
}

// run executes one batch off the queue — a solo job, a coalesced gang or a
// multi-rank job — through one lifecycle: admit, start, resolve and
// execute, settle.
func (m *Manager) run(batch []*Job) {
	// Admit: each deadline is anchored at the job's own submission, so
	// queue wait counts; a job canceled while queued never touches the
	// registry.
	var jobs []*Job
	var ctxs []context.Context
	for _, j := range batch {
		ctx, cancel := m.deadlineContext(j)
		defer cancel()
		if ctx.Err() != nil {
			m.finishJob(j, ctx, outcome{})
			continue
		}
		jobs, ctxs = append(jobs, j), append(ctxs, ctx)
	}
	if len(jobs) == 0 {
		return
	}

	// Start. Members share the coalesce key, so the head's request is the
	// batch's. Method "auto" (never coalesced) delegates selection to the
	// stability tuner: the decision, made once here and never mid-solve,
	// names the method, s and replacement cadence the job runs, and the
	// start event carries it ahead of the first progress line.
	req, width := jobs[0].Req, len(jobs)
	m.met.noteBatch(width)
	outs := make([]outcome, width)
	method := req.Method
	if method == MethodAuto {
		outs[0].tune = m.tuner.Resolve(req)
		method = outs[0].tune.Method
	}
	for i, j := range jobs {
		j.mu.Lock()
		j.state = JobRunning
		j.runStart = time.Now()
		j.batchWidth = width
		j.mu.Unlock()
		ev := Event{Type: "start", Job: j.ID, State: JobRunning, Method: req.Method}
		if width > 1 {
			ev.BatchWidth = width
		}
		if dec := outs[i].tune; dec != nil {
			ev.TunedMethod, ev.TunerWarmStart = dec.Method, dec.WarmStart
		}
		j.emit(ev)
	}

	if err := m.execute(jobs, ctxs, outs, method); err != nil {
		for i := range outs {
			outs[i].err = err
		}
	}

	// Settle. A batch runs under one set of rank tracers (a gang's columns
	// share one), so its summary joins the service aggregate once; every
	// rank's ledger joins as it is.
	m.met.AddObs(outs[0].sum)
	for i, j := range jobs {
		o := outs[i]
		for r := range o.ledgers {
			m.met.AddCounters(&o.ledgers[r])
		}
		if sk := o.skew; sk != nil {
			// Purely observational (it reads finished summaries): exported
			// as solverd_rank_skew and, past the threshold, flagged in the
			// flight recorder.
			m.met.noteSkew(*sk)
			if sk.StragglerRank >= 0 && sk.MaxScore >= m.cfg.SkewThreshold {
				m.flight.RecordEvent(obs.FlightEvent{
					UnixNS: time.Now().UnixNano(), Kind: "rank_skew", TraceID: j.TraceID(),
					Attrs: map[string]string{
						"job":            j.ID,
						"straggler_rank": fmt.Sprintf("%d", sk.StragglerRank),
						"score":          fmt.Sprintf("%.3f", sk.MaxScore),
					},
				})
			}
		}
		m.finishJob(j, ctxs[i], o)
	}
}

// execute resolves the batch — the registry entry, the method, the solver
// options with the tuner's overrides and an auto job's drift probe, each
// once — and runs it in one of two shapes, filling one outcome per job. The
// error is a resolve failure, which reached no solver.
func (m *Manager) execute(jobs []*Job, ctxs []context.Context, outs []outcome, method string) error {
	req := jobs[0].Req
	entry, err := m.reg.Acquire(req.ProblemSpec)
	if err != nil {
		return err
	}
	defer m.reg.Release(entry)
	pr := entry.Problem()
	meth, err := krylov.MethodByName(method)
	if err != nil {
		return err
	}

	opt := solveOptions(pr, req)
	if dec := outs[0].tune; dec != nil {
		opt.S = dec.S
		opt.ReplaceEvery = dec.ReplaceEvery
		// Match the audit harness: under the unpreconditioned norm the drift
		// probe's true ‖b−A·x‖/‖b‖ and the monitor's recurrence residual
		// estimate the same quantity, so their ratio is a clean drift signal.
		opt.Norm = krylov.NormUnpreconditioned
	}
	// engs[i] is the engine whose counters job i's progress events read; the
	// shape sets it before the solve starts.
	engs := make([]engine.Engine, len(jobs))
	bs := make([][]float64, len(jobs))
	opts := make([]krylov.Options, len(jobs))
	for i, j := range jobs {
		bs[i] = rhsFor(pr, j.Req.RHSSeed)
		opts[i] = opt
		opts[i].Observe = j.progressHook(ctxs[i], &engs[i])
	}
	// A single-rank auto job carries the drift probe: every few monitor
	// checks it recomputes the true residual through the raw CSR kernel —
	// never the engine, so the counter ledger and the bit-identity with the
	// CLI path are untouched. Its max true/recurrence ratio is the tuner's
	// stability signal.
	var probe *workload.DriftProbe
	if outs[0].tune != nil && req.Ranks <= 1 {
		probe = workload.NewDriftProbe(pr.A, bs[0], driftProbeEvery)
		progress := opts[0].Observe
		opts[0].Observe = func(hp krylov.HistPoint, x []float64) {
			progress(hp, x)
			probe.Observe(hp, x)
		}
	}

	if req.Ranks > 1 {
		m.executeRanks(&outs[0], entry, meth, req, bs[0], opts[0], &engs[0])
	} else {
		executeSeq(outs, entry, meth, workload.EffectivePC(meth, req.PC), bs, opts, engs)
	}
	if probe != nil {
		outs[0].drift = probe.MaxRatio
	}
	return nil
}

// executeSeq runs a single-rank batch on one sequential engine with one
// preconditioner checkout and one tracer. A width-1 batch calls the solver
// directly under engine.Recover, its iterate bit-identical to `repro solve
// -runtime seq`, and skips the rendezvous a one-column gang would pay for
// nothing (1.03–1.14× the direct median time, DESIGN §4.12). A wider batch
// runs as a blockcg gang: the columns share every SPMV and reduction, each
// bit-identical to its solo solve, and the gang serializes base-engine
// calls, so the one PC instance serves one column's buffers at a time.
func executeSeq(outs []outcome, entry *Entry, meth krylov.Method, pcName string,
	bs [][]float64, opts []krylov.Options, engs []engine.Engine) {
	pc, err := entry.AcquirePC(pcName)
	if err != nil {
		for i := range outs {
			outs[i].err = err
		}
		return
	}
	defer entry.ReleasePC(pcName, pc)

	pr := entry.Problem()
	eng := engine.NewSeq(pr.Operator(), pc)
	anchorNS := time.Now().UnixNano()
	eng.Tr = jobTracer(0)
	if len(outs) == 1 {
		engs[0] = eng
		o := &outs[0]
		func() {
			defer engine.Recover(&o.err, nil)
			o.res, o.err = meth.Solve(eng, bs[0], opts[0])
		}()
		o.ledgers = []trace.Counters{*eng.Counters()}
	} else {
		cols := make([]blockcg.Column, len(outs))
		for i := range cols {
			cols[i] = blockcg.Column{B: bs[i], Opt: opts[i], Engine: &engs[i]}
		}
		for i, r := range blockcg.Solve(eng, meth.Solve, cols) {
			outs[i].res, outs[i].err, outs[i].ledgers = r.Res, r.Err, []trace.Counters{r.Counters}
		}
	}
	sum := eng.Tr.Summary()
	sums := []obs.Summary{sum}
	for i := range outs {
		unpermuteResult(outs[i].res, pr)
		outs[i].sums, outs[i].sum, outs[i].anchorNS = sums, sum, anchorNS
	}
}

// executeRanks runs a ranks > 1 job on the in-process goroutine-rank
// runtime through the shared SPMD driver — the function the CLIs and the
// audit call — with the entry's cached nnz-balanced partition and a fresh
// fabric. Cancellation unwinds rank 0, the one rank whose progress hook
// runs, and comm.RunErr then wakes every peer blocked on it with a typed
// fabric error, so the fabric needs no receive deadline.
func (m *Manager) executeRanks(o *outcome, entry *Entry, meth krylov.Method, req SolveRequest,
	b []float64, opt krylov.Options, eng *engine.Engine) {
	f := comm.NewFabric(req.Ranks, 0)
	if m.cfg.testFabricFault != nil {
		// Test hook: inject fabric faults (e.g. straggler jitter) so the
		// skew detector is validated end to end against a degraded rank.
		f = f.WithFault(m.cfg.testFabricFault)
	}
	// Rank 0, the one rank that streams progress, lends its engine to the
	// progress hook; its tracer's clock zero anchors the solve span.
	solve := meth.Solve
	meth.Solve = func(e engine.Engine, b []float64, opt krylov.Options) (*krylov.Result, error) {
		if e.(*comm.Engine).Rank() == 0 {
			*eng = e
		}
		return solve(e, b, opt)
	}
	tracer := func(rank int) *obs.Tracer {
		if rank == 0 {
			o.anchorNS = time.Now().UnixNano()
		}
		return jobTracer(rank)
	}
	pr := entry.Problem()
	out, err := workload.SPMD{Fabric: f, Part: entry.Partition(req.Ranks), PC: req.PC, Tracer: tracer}.
		Run(pr, meth, b, opt)
	if err != nil {
		o.err = fmt.Errorf("serve: ranks>1 supports %w", err)
		return
	}
	if out.Leak != nil {
		// A cancelled SPMD solve legitimately leaves mailbox entries behind;
		// count it, don't fail the drain.
		m.met.fabricLeaks.Add(1)
	}
	skew := obs.AnalyzeSkewTransit(out.Summaries, out.TransitNS)
	_, o.err = out.FirstErr()
	o.res, o.ledgers, o.sums, o.skew = out.Res, out.Counters, out.Summaries, &skew
	o.sum = obs.MergeSummaries(out.Summaries)
	unpermuteResult(o.res, pr)
}

// unpermuteResult maps a solve's iterate back to the operator's source row
// ordering when the registry reordered the system (RCM on uploads), so XHash
// and any returned X are in the ordering the client uploaded.
func unpermuteResult(res *krylov.Result, pr workload.Problem) {
	if res != nil {
		res.X = pr.Unpermute(res.X)
	}
}

// finishJob classifies a job's outcome into its terminal state — canceled
// once its context is done, failed on an error or without convergence —
// records it, observes the job's latency (once: every job finishes here
// exactly once), tallies metrics and emits the result event (with the
// iterate's bit-fingerprint, and the iterate itself when the submission asked
// for it; otherwise the iterate is dropped here).
func (m *Manager) finishJob(j *Job, ctx context.Context, o outcome) {
	res, err := o.res, o.err
	state := JobFailed
	switch {
	case ctx.Err() != nil:
		state, err = JobCanceled, ctx.Err()
	case err != nil:
	case res != nil && res.Converged:
		state = JobConverged
	default:
		err = fmt.Errorf("serve: solve ended without convergence")
	}
	duration := time.Since(j.submitted)
	m.met.ObserveLatency(duration.Seconds())

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
	if len(o.ledgers) > 0 {
		j.counters = o.ledgers[0]
	}
	j.obsSum = o.sum
	if j.batchWidth > 1 {
		ev.BatchWidth = j.batchWidth
	}
	runStart, coalesceAt, coalesceNS := j.runStart, j.coalesceAt, j.coalesceNS
	j.mu.Unlock()
	overlap, dec, drift := o.sum.Overlap, o.tune, o.drift
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
		"duration", duration.Round(time.Microsecond),
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
	if o.anchorNS != 0 {
		solveSpanID = m.ids.NewSpanID().String()
		sa := map[string]string{"ranks": fmt.Sprintf("%d", j.Req.Ranks)}
		if sk := o.skew; sk != nil && sk.StragglerRank >= 0 {
			sa["skew_max"] = fmt.Sprintf("%.3f", sk.MaxScore)
			sa["skew_rank"] = fmt.Sprintf("%d", sk.StragglerRank)
		}
		spans = append(spans, obs.TraceSpan{
			TraceID: traceID, SpanID: solveSpanID, ParentID: jobSpanID,
			Name: "solve", Service: "solverd",
			StartUnixNS: o.anchorNS, EndUnixNS: now.UnixNano(), Attrs: sa,
		})
	}
	m.flight.RecordJob(obs.JobRecord{
		Job: j.ID, TraceID: traceID, Outcome: string(state),
		Spans: spans, SolveSpanID: solveSpanID,
		AnchorUnixNS: o.anchorNS, Ranks: o.sums,
	})

	j.finish(state, ev)
	// Completion is a retention event: without this, a backlog finishing
	// after the last submission (every drain, every Kill) keeps jobs and
	// their idempotency keys past the retention bound forever — Submit's
	// trim stops at the live oldest job and never runs again.
	m.trim()
}
