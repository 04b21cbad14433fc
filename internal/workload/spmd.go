package workload

import (
	"errors"
	"time"

	"repro/internal/comm"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/trace"
)

// SPMD assembles one solve on the goroutine-rank runtime. It sits on top of
// the raw internal/comm API (NewEnginesOp, Scatter, RunErr, Gather), which
// stays public for internal/krylov's own tests — this package imports
// krylov, so importing it back would be a test-time cycle — and for the
// benchmark module.
//
// The four fields are what callers really differ in; everything else about
// the assembly is the same for the service, the audit and every CLI.
type SPMD struct {
	// Fabric connects the ranks. The caller builds it — hop latency,
	// injected faults and receive deadlines are the caller's business — and
	// Run closes it.
	Fabric *comm.Fabric
	// Part is the row partition; the zero value takes the nnz-balanced row
	// blocks for the fabric's rank count.
	Part partition.Partition
	// PC names a rank-local preconditioner (see RankPC).
	PC string
	// Tracer, when non-nil, builds the tracer attached to each rank.
	Tracer func(rank int) *obs.Tracer
}

// DefaultTracer is the SPMD.Tracer with obs's default ring sizes.
func DefaultTracer(rank int) *obs.Tracer { return obs.New(rank) }

// Outcome is everything one SPMD solve leaves behind.
type Outcome struct {
	// Res is rank 0's result carrying the gathered global iterate; nil
	// unless every rank returned a result, without error or with an
	// exhausted ladder's *krylov.LadderError.
	Res *krylov.Result
	// Ranks, Errs and Counters are indexed by rank; Summaries too, and is
	// nil when no Tracer was set.
	Ranks     []*krylov.Result
	Errs      []error
	Counters  []trace.Counters
	Summaries []obs.Summary
	// TransitNS is each rank's mean modeled send latency per message, the
	// attribution signal obs.AnalyzeSkewTransit takes.
	TransitNS []int64
	// Elapsed is the wall time of the SPMD region alone (assembly, scatter
	// and gather excluded).
	Elapsed time.Duration
	// Leak is the fabric's verdict at close: messages sent but never
	// received. A solve that failed or was cancelled legitimately leaks.
	Leak error
}

// FirstErr returns the lowest failed rank and its error, or (-1, nil).
func (o *Outcome) FirstErr() (rank int, err error) {
	for r, err := range o.Errs {
		if err != nil {
			return r, err
		}
	}
	return -1, nil
}

// Run solves pr's system for the right-hand side b with meth on every rank
// of the fabric: it builds the engines, attaches the tracers, scatters b,
// launches the ranks under comm.RunErr with Observe silenced on every rank
// but 0 (the checks are collective-consistent, so one rank's view
// is the solve's view), collects what each rank left behind, closes the
// fabric and gathers the iterate. A method that ignores its preconditioner
// runs with none. The error is a refused assembly (a preconditioner that is
// not rank-local); a solve that ran reports per-rank errors in the Outcome.
func (s SPMD) Run(pr Problem, meth krylov.Method, b []float64, opt krylov.Options) (*Outcome, error) {
	pcf, err := RankPC(EffectivePC(meth, s.PC))
	if err != nil {
		return nil, err
	}
	f, pt := s.Fabric, s.Part
	ranks := f.P()
	if pt.P == 0 {
		pt = partition.RowBlockByNNZ(pr.A, ranks)
	}
	engines := comm.NewEnginesOp(f, pr.A, pr.Operator(), pt, pcf)
	var tracers []*obs.Tracer
	if s.Tracer != nil {
		tracers = make([]*obs.Tracer, ranks)
		for r, e := range engines {
			tracers[r] = s.Tracer(r)
			e.SetTracer(tracers[r])
		}
	}
	bs := comm.Scatter(pt, b)
	quiet := opt
	quiet.Observe = nil

	out := &Outcome{Ranks: make([]*krylov.Result, ranks), Counters: make([]trace.Counters, ranks)}
	start := time.Now()
	out.Errs = comm.RunErr(engines, func(r int, e *comm.Engine) error {
		o := quiet
		if r == 0 {
			o = opt
		}
		res, err := meth.Solve(e, bs[r], o)
		out.Ranks[r] = res
		return err
	})
	out.Elapsed = time.Since(start)

	for r, e := range engines {
		out.Counters[r] = *e.Counters()
	}
	if tracers != nil {
		out.Summaries = make([]obs.Summary, ranks)
		for r, tr := range tracers {
			out.Summaries[r] = tr.Summary()
		}
	}
	out.TransitNS = make([]int64, ranks)
	for r, tr := range f.TransitStats() {
		out.TransitNS[r] = tr.MeanNS()
	}
	out.Leak = f.Close()

	// Every rank reaches the ladder's verdict on the same reduced values.
	xs := make([][]float64, ranks)
	for r, res := range out.Ranks {
		var le *krylov.LadderError
		if res == nil || out.Errs[r] != nil && !errors.As(out.Errs[r], &le) {
			return out, nil
		}
		xs[r] = res.X
	}
	assembled := *out.Ranks[0]
	assembled.X = comm.Gather(pt, xs)
	out.Res = &assembled
	return out, nil
}
