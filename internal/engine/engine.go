// Package engine defines the runtime abstraction the Krylov solvers are
// written against, plus the reference sequential implementation.
//
// Solvers are written once, in SPMD style, as the per-rank program: they
// operate on local vector slices, call SpMV/ApplyPC for the communication-
// aware kernels, compute local dot products themselves, and combine them
// with AllreduceSum (blocking, PCG-style) or IallreduceSum (non-blocking,
// the pipelined methods' MPI_Iallreduce). Two engines run the numerics and
// one records around them:
//
//   - engine.Seq — one rank, global vectors, no timing: reference numerics.
//   - comm.Engine — R goroutine ranks with channel-based collectives and a
//     true asynchronous allreduce (real overlap).
//   - sim.Engine — a recorder around an engine.Seq, which runs the numerics
//     (bit-identical by construction), while a virtual-clock cost model
//     prices every kernel for a modeled machine with P ranks.
package engine

import (
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Request is a pending non-blocking reduction.
type Request interface {
	// Wait blocks until the reduced values are available in the buffer
	// passed to IallreduceSum.
	Wait()
	// WaitTimeout bounds the wait and returns an error (typed by the
	// backend, e.g. *comm.FaultError) when the reduction has not completed
	// within d — the solver-side belt over the fabric's own receive
	// deadlines. After a nil return the buffer holds the global sums,
	// exactly as after Wait. Backends whose reductions complete at the post
	// (seq, sim) return nil.
	WaitTimeout(d time.Duration) error
}

// Preconditioner applies M⁻¹ to a vector. Implementations live in
// internal/precond; the engine routes ApplyPC through one of these.
type Preconditioner interface {
	// Apply computes dst = M⁻¹·src. dst and src do not alias.
	Apply(dst, src []float64)
	// Name identifies the preconditioner in reports ("jacobi", "ssor", ...).
	Name() string
	// WorkPerApply returns the modeled global cost of one application:
	// floating point operations and bytes of memory traffic, plus the
	// number of neighbor-exchange rounds and internal allreduces the
	// distributed application would need (0 for local preconditioners).
	WorkPerApply() (flops, bytes float64, p2pRounds, allreduces int)
}

// DiagonalPC is an optional Preconditioner capability: M is diagonal.
// Diagonal returns M's diagonal d over the rows the instance was built for,
// nil for the identity, and InvDiagonal the factors Apply multiplies by:
// Apply computes dst[i] = src[i]·InvDiagonal()[i] (a copy for nil). Row i of
// M⁻¹·src then depends on src[i] alone, so an instance built over any row
// range reproduces, bit for bit, the rows another instance produces there —
// what lets a rank apply M⁻¹ to ghost rows it recomputes
// (Engine.SpMVPowers) — M⁻¹ can ride a product's write-back
// (FusedApply), and every r-space quantity of a preconditioned solver is a
// row scale r = D·u of its u-space twin (Engine.PCDiagonal). The slices are
// shared and read-only.
type DiagonalPC interface {
	Diagonal() []float64
	InvDiagonal() []float64
}

// Diagonal answers Engine.PCDiagonal for an engine that applies pc (nil
// meaning the identity): M's diagonal and true when M is diagonal, the
// diagonal being nil for the identity; false otherwise.
func Diagonal(pc Preconditioner) (d []float64, ok bool) {
	if pc == nil {
		return nil, true
	}
	dp, ok := pc.(DiagonalPC)
	if !ok {
		return nil, false
	}
	return dp.Diagonal(), true
}

// InvDiagonal returns the factors a diagonal pc applies — nil for the
// identity (pc nil included) — and panics for a pc that is not diagonal: an
// engine folds M⁻¹ into a product only after PCDiagonal said it may.
func InvDiagonal(pc Preconditioner) []float64 {
	if pc == nil {
		return nil
	}
	dp, ok := pc.(DiagonalPC)
	if !ok {
		panic("engine: M⁻¹ folded into a product, but " + pc.Name() + " is not diagonal")
	}
	return dp.InvDiagonal()
}

// Engine is the runtime a solver executes on. Everything a solver may ask of
// its runtime is a method here, so a wrapper that embeds an Engine forwards
// all of it and intercepts by overriding the calls it cares about; an
// implementer that does not embed must state its answer to each.
type Engine interface {
	// NLocal returns the number of rows this rank owns.
	NLocal() int
	// NGlobal returns the global problem size.
	NGlobal() int

	// SpMV computes dst = A·src over the local rows, performing whatever
	// halo communication the backend needs. dst and src must not alias.
	SpMV(dst, src []float64)

	// SpMVFusedDots computes the product p = scale·(A·src) over the local
	// rows plus the rank-local dot products dots[k] = ws[k]·p (nil ws[k]
	// means p·p), fused into the SPMV's pass over the rows, and stores
	// dst = p. With pc set it stores dst = M⁻¹·p instead, M⁻¹ riding the
	// same pass (one pass per preconditioned basis vector); p itself is
	// never stored. pc needs a diagonal M (PCDiagonal ok). ws entries share
	// dst's local indexing. Values and counters equal the product into a
	// scratch vector followed by ApplyPC(dst, scratch). The caller accounts
	// the scale/dot work via Charge — uniformly across engines — so
	// backends only count the SPMV (and the PC application) itself.
	SpMVFusedDots(dst, src []float64, scale float64, pc bool, ws [][]float64, dots []float64)

	// SpMVPowers offers the engine an s-step powers block to run in one
	// communication phase (Hoemmen's matrix powers kernel, the paper's §II)
	// instead of one halo exchange per product. Starting from u = src,
	// level j computes dstR[j] = scale·A·u and then u = dstU[j] =
	// M⁻¹·dstR[j]; a nil dstU means the basis is unpreconditioned
	// (u = dstR[j], no PC applied or counted), and a nil dstR — which needs
	// a diagonal M — means the products are not kept: each level is
	// SpMVFusedDots with pc set, dstU[j] = M⁻¹·scale·A·u. Values and every
	// counter except HaloExchanges and the redundant rows' SpMVFlops equal
	// the per-product sequence SpMVFusedDots (scale in the write-back),
	// ApplyPC — or the folded SpMVFusedDots for a nil dstR. The engine
	// answers for itself: false means "not here" — nothing was computed,
	// sent or counted — and the caller runs its per-product loop.
	SpMVPowers(dstR, dstU [][]float64, src []float64, scale float64) bool

	// ApplyPC computes dst = M⁻¹·src over the local rows.
	ApplyPC(dst, src []float64)

	// PCDiagonal reports whether the M that ApplyPC applies is diagonal,
	// M = diag(d) over the local rows, and returns d — nil for the identity
	// (see DiagonalPC and Diagonal). ok false means M is not diagonal.
	PCDiagonal() (d []float64, ok bool)

	// AllreduceSum sums buf element-wise across all ranks, blocking.
	AllreduceSum(buf []float64)

	// IallreduceSum starts a non-blocking element-wise sum of buf across
	// ranks. buf must not be read or written until the returned request's
	// Wait returns, after which buf holds the global sums.
	IallreduceSum(buf []float64) Request

	// Charge accounts local vector work (VMAs, recurrence linear
	// combinations, local dot products): flops executed and bytes of
	// memory traffic. Backends that model time price this; all backends
	// count it.
	Charge(flops, bytes float64)

	// Counters exposes the kernel counters of this rank.
	Counters() *trace.Counters

	// BeginPhase and EndPhase bracket a solver-side hot section (dot
	// batches, Gram assembly, recurrence updates, recovery bookkeeping) in
	// a phase span: seq and comm delegate to their attached tracer, nil
	// when tracing is off; sim tags its recorded cost events instead. The
	// engine kernels span themselves, so solver-side spans never nest
	// inside them.
	BeginPhase(p obs.Phase) obs.Span
	EndPhase(sp obs.Span)
}

// TraceRequest wraps a pending reduction so its wait is measured against the
// tracer's overlap ledger: BeginWait when the solver blocks, EndWait when the
// reduction delivers, AbortWait when the wait fails (deadline, fabric fault)
// so a reduction that never completed cannot pollute the hidden-fraction
// statistics. With a nil tracer the request is returned unwrapped.
func TraceRequest(req Request, tr *obs.Tracer, h int) Request {
	if tr == nil {
		return req
	}
	return tracedRequest{req: req, tr: tr, h: h}
}

type tracedRequest struct {
	req Request
	tr  *obs.Tracer
	h   int
}

func (r tracedRequest) Wait() {
	r.tr.BeginWait(r.h)
	ok := false
	defer func() {
		if !ok {
			r.tr.AbortWait(r.h)
		}
	}()
	r.req.Wait()
	ok = true
	r.tr.EndWait(r.h)
}

func (r tracedRequest) WaitTimeout(d time.Duration) error {
	r.tr.BeginWait(r.h)
	ok := false
	defer func() {
		if !ok {
			r.tr.AbortWait(r.h)
		}
	}()
	if err := r.req.WaitTimeout(d); err != nil {
		return err // the deferred AbortWait drops the wait from the ledger
	}
	ok = true
	r.tr.EndWait(r.h)
	return nil
}

// Seq is the single-rank reference engine: global vectors, immediate
// reductions, no cost model beyond counters.
type Seq struct {
	A  Operator
	PC Preconditioner
	C  trace.Counters

	// Tr is the optional observability tracer. Nil (the default) means no
	// tracing: every instrumentation site degrades to a nil check.
	Tr *obs.Tracer
}

var _ Engine = (*Seq)(nil)

// NewSeq returns a sequential engine for the operator a with the given
// preconditioner (nil means identity — the unpreconditioned methods).
func NewSeq(a Operator, pc Preconditioner) *Seq {
	return &Seq{A: a, PC: pc}
}

// NLocal implements Engine.
func (e *Seq) NLocal() int { rows, _ := e.A.Dims(); return rows }

// NGlobal implements Engine.
func (e *Seq) NGlobal() int { return e.NLocal() }

// BeginPhase implements Engine.
func (e *Seq) BeginPhase(p obs.Phase) obs.Span { return e.Tr.Begin(p) }

// EndPhase implements Engine.
func (e *Seq) EndPhase(sp obs.Span) { e.Tr.End(sp) }

// SpMV implements Engine. The product runs on the shared worker pool (see
// internal/par); the counters record modeled work and are unaffected by how
// many OS threads execute it.
func (e *Seq) SpMV(dst, src []float64) {
	sp := e.Tr.Begin(obs.PhaseSpMV)
	e.A.MulVec(dst, src)
	e.Tr.End(sp)
	e.C.SpMV++
	e.C.HaloExchanges++
	e.C.SpMVFlops += 2 * float64(e.A.NNZ())
}

// SpMVFusedDots implements Engine: one traced SPMV span covering the
// fused product, scale, local dots and folded PC. Counted as a single SPMV
// (plus the PC application when folded); the caller charges the scale/dot
// payload.
func (e *Seq) SpMVFusedDots(dst, src []float64, scale float64, pc bool, ws [][]float64, dots []float64) {
	sp := e.Tr.Begin(obs.PhaseSpMV)
	rows, _ := e.A.Dims()
	var inv []float64
	if pc {
		inv = InvDiagonal(e.PC)
	}
	FusedApply(e.A, dst, src, 0, rows, 0, scale, inv, ws, dots)
	e.Tr.End(sp)
	e.C.SpMV++
	e.C.HaloExchanges++
	e.C.SpMVFlops += 2 * float64(e.A.NNZ())
	if pc {
		e.countPC()
	}
}

// SpMVPowers implements Engine: one rank has no exchange to save.
func (e *Seq) SpMVPowers(dstR, dstU [][]float64, src []float64, scale float64) bool { return false }

// ApplyPC implements Engine.
func (e *Seq) ApplyPC(dst, src []float64) {
	sp := e.Tr.Begin(obs.PhasePCApply)
	defer e.Tr.End(sp)
	if e.PC == nil {
		copy(dst, src)
	} else {
		e.PC.Apply(dst, src)
	}
	e.countPC()
}

// countPC accounts one application of M⁻¹.
func (e *Seq) countPC() {
	e.C.PCApply++
	if e.PC != nil {
		flops, _, _, _ := e.PC.WorkPerApply()
		e.C.PCFlops += flops
	}
}

// PCDiagonal implements Engine.
func (e *Seq) PCDiagonal() ([]float64, bool) { return Diagonal(e.PC) }

// AllreduceSum implements Engine; with one rank it is a no-op on the data,
// but it still enters the overlap ledger as a blocking reduction (hidden
// fraction 0 by construction) so per-method reduction mixes stay comparable
// across runtimes.
func (e *Seq) AllreduceSum(buf []float64) {
	sp := e.Tr.Begin(obs.PhaseAllreduceWait)
	e.Tr.EndBlocking(sp, len(buf))
	e.C.Allreduce++
	e.C.ReduceWords += len(buf)
}

type seqRequest struct{}

func (seqRequest) Wait() {}

func (seqRequest) WaitTimeout(time.Duration) error { return nil }

// IallreduceSum implements Engine.
func (e *Seq) IallreduceSum(buf []float64) Request {
	sp := e.Tr.Begin(obs.PhaseIallreducePost)
	h := e.Tr.Post(len(buf))
	e.Tr.End(sp)
	e.C.Iallreduce++
	e.C.ReduceWords += len(buf)
	return TraceRequest(seqRequest{}, e.Tr, h)
}

// Charge implements Engine.
func (e *Seq) Charge(flops, bytes float64) { e.C.Flops += flops }

// Counters implements Engine.
func (e *Seq) Counters() *trace.Counters { return &e.C }
