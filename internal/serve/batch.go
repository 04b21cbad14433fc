package serve

import (
	"context"
	"time"

	"repro/internal/blockcg"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/workload"
)

// runBatch executes a coalesced batch of jobs as ONE block solve: the gang
// (internal/blockcg) runs every job's right-hand side against a single
// sequential engine, sharing each SPMV and reduction across the batch while
// every job keeps its own convergence trajectory, deadline, progress stream
// and counter ledger. The determinism contract makes the batching invisible
// to clients: each job's iterate, history and counters are bit-identical to
// what its solo solve would have produced (asserted end to end by
// TestBatchSmoke and solverbench -rhs).
//
// Per-job concerns stay per job: deadlines are enforced by the same
// cancelEngine wrapper the solo path uses (installed through the gang's
// per-column Wrap hook), and a column whose deadline fires simply deflates
// out of the batch — the survivors' batches shrink, their numerics do not
// change.
func (m *Manager) runBatch(batch []*Job) {
	for _, j := range batch {
		defer func(j *Job) { m.met.ObserveLatency(time.Since(j.submitted).Seconds()) }(j)
	}

	// Per-job deadlines, anchored at each job's own submission time — queue
	// wait counts against the budget exactly as on the solo path.
	ctxs := make([]context.Context, len(batch))
	for i, j := range batch {
		ctx, cancel := m.deadlineContext(j)
		defer cancel()
		ctxs[i] = ctx
	}

	// Jobs cancelled while queued never touch the registry; the rest form
	// the gang. A batch reduced to one member takes the solo path.
	var jobs []*Job
	var jctx []context.Context
	for i, j := range batch {
		if ctxs[i].Err() != nil {
			m.finishJob(j, JobCanceled, nil, ctxs[i].Err())
			continue
		}
		jobs = append(jobs, j)
		jctx = append(jctx, ctxs[i])
	}
	switch len(jobs) {
	case 0:
		return
	case 1:
		m.run(jobs[0])
		return
	}
	width := len(jobs)
	m.met.noteBatch(width)

	for _, j := range jobs {
		j.mu.Lock()
		j.state = JobRunning
		j.runStart = time.Now()
		j.batchWidth = width
		j.mu.Unlock()
		j.emit(Event{Type: "start", Job: j.ID, State: JobRunning,
			Method: j.Req.Method, BatchWidth: width})
	}
	fail := func(err error) {
		for _, j := range jobs {
			m.finishJob(j, JobFailed, nil, err)
		}
	}

	// One operator pin and one preconditioner checkout serve the whole
	// batch — the gang serializes base-engine calls, so a single PC
	// instance is applied to one column's buffers at a time.
	req := jobs[0].Req // identical coalesce key across the batch
	entry, err := m.reg.Acquire(req.ProblemSpec)
	if err != nil {
		fail(err)
		return
	}
	defer m.reg.Release(entry)
	pr := entry.Problem()

	meth, err := krylov.MethodByName(req.Method)
	if err != nil {
		fail(err)
		return
	}

	pcName := workload.EffectivePC(meth, req.PC)
	pc, err := entry.AcquirePC(pcName)
	if err != nil {
		fail(err)
		return
	}
	defer entry.ReleasePC(pcName, pc)

	eng := engine.NewSeq(pr.Operator(), pc)
	// One shared tracer for the gang, anchored once: every member job's
	// solve span starts here on the wall axis.
	anchor := time.Now()
	eng.Tr = jobTracer(0)
	for _, j := range jobs {
		j.setAnchor(anchor)
	}

	cols := make([]blockcg.Column, width)
	for i, j := range jobs {
		i, j, ctx := i, j, jctx[i]
		// Every solver parameter is part of the coalesce key, so the head
		// request's options are every member's.
		opt := solveOptions(pr, req)
		// colEng is this column's engine view; the progress hook runs on the
		// column's own goroutine, so reading its per-column ledger is safe.
		var colEng engine.Engine
		opt.Progress = j.progressHook(&colEng)
		cols[i] = blockcg.Column{
			B:   rhsFor(pr, j.Req.RHSSeed),
			Opt: opt,
			Wrap: func(e engine.Engine) engine.Engine {
				colEng = e
				return &cancelEngine{Engine: e, ctx: ctx}
			},
			Recover: func(p any) error {
				if cp, ok := p.(cancelPanic); ok {
					return cp.err
				}
				return nil // not ours: re-panics after the gang settles
			},
		}
	}

	out := blockcg.Solve(eng, meth.Solve, cols)

	sum := eng.Tr.Summary()
	m.met.AddObs(sum)
	for i, j := range jobs {
		res := out[i].Res
		unpermuteResult(res, pr)
		j.mu.Lock()
		j.counters = out[i].Counters
		j.obsSum = sum
		j.rankSums = []obs.Summary{sum}
		j.mu.Unlock()
		m.met.AddCounters(&out[i].Counters)
		m.classify(j, jctx[i], res, out[i].Err)
	}
}
