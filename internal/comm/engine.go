package comm

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Engine is one rank's view of the distributed runtime. It implements
// engine.Engine: local vectors are slices of length NLocal(), SpMV performs
// halo exchange with neighbor ranks, and the reductions run on the fabric.
type Engine struct {
	f    *Fabric
	rank int
	a    *sparse.CSR     // shared, read-only: partition/halo structure + cost accounting
	op   engine.Operator // shared, read-only: the operator the numerics apply
	pt   partition.Partition
	halo partition.Halo
	pc   engine.Preconditioner

	lo, hi  int
	scratch []float64 // full-length source buffer for SpMV
	c       trace.Counters

	// shallow is the SpMV's ghost exchange, built from halo (which the block
	// path still reads); see ghostExchange for the send-buffer discipline.
	shallow ghostExchange

	collSeq int // collective sequence counter, advanced identically on all ranks
	haloSeq int

	// tr is this rank's optional observability tracer (real wall clock).
	// Nil means no tracing; every instrumentation site is nil-safe.
	tr *obs.Tracer

	// matrix powers kernel state — see powers.go.
	pcf    PCFactory
	powers *powersPlans          // shared by the fabric's engines
	deep   map[int]*deepExchange // this rank's exchange state, by depth

	// block (multi-RHS) SPMV scratch — see block.go.
	block blockState
}

var _ engine.Engine = (*Engine)(nil)

// PCFactory builds a rank-local preconditioner for rows [lo, hi) of a.
// A nil factory (or a factory returning nil) means identity.
type PCFactory func(a *sparse.CSR, lo, hi int) engine.Preconditioner

// NewEngines partitions a across p ranks connected by fabric f and returns
// one engine per rank. The matrix is shared read-only; each rank owns the
// row block pt assigns to it.
func NewEngines(f *Fabric, a *sparse.CSR, pt partition.Partition, pcf PCFactory) []*Engine {
	return NewEnginesOp(f, a, a, pt, pcf)
}

// NewEnginesOp is NewEngines with the numerics routed through op (e.g. a
// matrix-free stencil) while a still provides the partition/halo structure
// and the cost accounting. op must describe the same operator as a; passing
// a for op recovers NewEngines.
func NewEnginesOp(f *Fabric, a *sparse.CSR, op engine.Operator, pt partition.Partition, pcf PCFactory) []*Engine {
	if pt.P != f.P() {
		panic("comm: partition rank count does not match fabric")
	}
	if pt.N != a.Rows {
		panic("comm: partition size does not match matrix")
	}
	if op == nil {
		op = a
	}
	halos := partition.BuildHalos(a, pt)
	powers := &powersPlans{a: a, pt: pt, diagonal: true}
	engines := make([]*Engine, pt.P)
	for r := range engines {
		e := &Engine{
			f: f, rank: r, a: a, op: op, pt: pt, halo: halos[r],
			lo: pt.Lo(r), hi: pt.Hi(r),
			scratch: make([]float64, a.Cols),
			shallow: newGhostExchange(halos[r].Send, halos[r].Recv),
			pcf:     pcf, powers: powers,
		}
		if pcf != nil {
			e.pc = pcf(a, e.lo, e.hi)
		}
		_, diag := e.PCDiagonal()
		powers.diagonal = powers.diagonal && diag
		engines[r] = e
	}
	return engines
}

// Rank returns this engine's rank id.
func (e *Engine) Rank() int { return e.rank }

// SetTracer attaches an observability tracer to this rank. Call before the
// SPMD launch; the tracer records on the real (monotonic wall) clock.
func (e *Engine) SetTracer(tr *obs.Tracer) { e.tr = tr }

// Tracer returns the attached tracer (nil when tracing is off).
func (e *Engine) Tracer() *obs.Tracer { return e.tr }

// BeginPhase implements engine.Engine.
func (e *Engine) BeginPhase(p obs.Phase) obs.Span { return e.tr.Begin(p) }

// EndPhase implements engine.Engine.
func (e *Engine) EndPhase(sp obs.Span) { e.tr.End(sp) }

// NLocal implements engine.Engine.
func (e *Engine) NLocal() int { return e.hi - e.lo }

// NGlobal implements engine.Engine.
func (e *Engine) NGlobal() int { return e.a.Rows }

// ghostPeer is one neighbor of a ghost exchange: the owned rows to ship
// (with their two send buffers) or the ghost columns to fill.
type ghostPeer struct {
	rank int
	idx  []int
	bufs [2][]float64
}

// ghostExchange is one rank's side of a recurring ghost exchange — the
// SpMV's shallow halo, or a matrix powers plan's deep one: peers in
// ascending rank order and the count of rounds done. Send buffers alternate
// by that count, so a round allocates nothing: a rank cannot start round
// n+2 of an exchange before a neighbor has consumed its payload of round n,
// because completing n+1 needs that neighbor's n+1 payload, which the
// neighbor only sends after its own receives of n finished. (That needs
// every neighbor sent to to be received from as well: true of a halo over a
// structurally symmetric matrix, checked for deep plans by worthwhile.)
type ghostExchange struct {
	send, recv []ghostPeer
	count      int
}

func newGhostExchange(send, recv map[int][]int) ghostExchange {
	var x ghostExchange
	for nbr, rows := range send {
		x.send = append(x.send, ghostPeer{rank: nbr, idx: rows,
			bufs: [2][]float64{make([]float64, len(rows)), make([]float64, len(rows))}})
	}
	for nbr, cols := range recv {
		x.recv = append(x.recv, ghostPeer{rank: nbr, idx: cols})
	}
	sort.Slice(x.send, func(i, j int) bool { return x.send[i].rank < x.send[j].rank })
	sort.Slice(x.recv, func(i, j int) bool { return x.recv[i].rank < x.recv[j].rank })
	return x
}

// exchangeGhosts stages src into the global-indexed scratch buffer and swaps
// ghost values with the exchange's neighbors in one message round (one
// halo_wait span).
func (e *Engine) exchangeGhosts(x *ghostExchange, src []float64) {
	copy(e.scratch[e.lo:e.hi], src)

	halo := e.tr.Begin(obs.PhaseHaloWait)
	seq := e.haloSeq
	e.haloSeq++
	parity := x.count & 1
	x.count++
	for i := range x.send {
		p := &x.send[i]
		out := p.bufs[parity]
		for k, row := range p.idx {
			out[k] = src[row-e.lo]
		}
		e.f.send(e.rank, p.rank, kindHalo, seq, out)
	}
	for i := range x.recv {
		p := &x.recv[i]
		in, err := e.f.recv(e.rank, p.rank, kindHalo, seq)
		if err != nil {
			panic(commPanic{err})
		}
		for k, col := range p.idx {
			e.scratch[col] = in[k]
		}
	}
	e.tr.End(halo)
}

// countSpMV accounts one local SPMV against this rank's owned rows.
func (e *Engine) countSpMV() {
	localNNZ := e.a.RowPtr[e.hi] - e.a.RowPtr[e.lo]
	e.c.SpMV++
	e.c.HaloExchanges++
	e.c.SpMVFlops += 2 * float64(localNNZ)
}

// SpMV implements engine.Engine: exchanges halo values with neighbors, then
// applies the local rows.
func (e *Engine) SpMV(dst, src []float64) {
	e.exchangeGhosts(&e.shallow, src)

	// Local rows through the shared parallel kernel layer. All ranks of this
	// process share one worker pool (see internal/par), so R ranks never
	// fan out to R×W goroutines.
	sp := e.tr.Begin(obs.PhaseSpMV)
	e.op.MulVecRangeInto(dst, e.scratch, e.lo, e.hi)
	e.tr.End(sp)
	e.countSpMV()
}

// SpMVFusedDots implements engine.Engine: the same halo exchange as SpMV,
// then the fused local product + scale + rank-local dot partials (+ the
// folded diagonal PC) in one pass over the owned rows. The caller reduces
// the dot partials and charges the scale/dot payload.
func (e *Engine) SpMVFusedDots(dst, src []float64, scale float64, pc bool, ws [][]float64, dots []float64) {
	e.exchangeGhosts(&e.shallow, src)

	var inv []float64
	if pc {
		inv = engine.InvDiagonal(e.pc)
	}
	sp := e.tr.Begin(obs.PhaseSpMV)
	engine.FusedApply(e.op, dst, e.scratch, e.lo, e.hi, e.lo, scale, inv, ws, dots)
	e.tr.End(sp)
	e.countSpMV()
	if pc {
		e.countPC()
	}
}

// ApplyPC implements engine.Engine.
func (e *Engine) ApplyPC(dst, src []float64) {
	sp := e.tr.Begin(obs.PhasePCApply)
	defer e.tr.End(sp)
	if e.pc == nil {
		copy(dst, src)
	} else {
		e.pc.Apply(dst, src)
	}
	e.countPC()
}

// countPC accounts one application of M⁻¹ on this rank's rows.
func (e *Engine) countPC() {
	e.c.PCApply++
	if e.pc != nil {
		flops, _, _, _ := e.pc.WorkPerApply()
		e.c.PCFlops += flops
	}
}

// PCDiagonal implements engine.Engine.
func (e *Engine) PCDiagonal() ([]float64, bool) { return engine.Diagonal(e.pc) }

// AllreduceSum implements engine.Engine. A fabric failure (deadline
// exhausted with nothing recoverable) surfaces as a typed panic that
// comm.RunErr converts back into the *FaultError. The whole call is one
// allreduce_wait span and a blocking ledger entry: nothing overlaps it.
func (e *Engine) AllreduceSum(buf []float64) {
	sp := e.tr.Begin(obs.PhaseAllreduceWait)
	seq := e.collSeq
	e.collSeq++
	err := e.f.allreduceSum(e.rank, seq, buf)
	e.tr.EndBlocking(sp, len(buf))
	if err != nil {
		panic(commPanic{err})
	}
	e.c.Allreduce++
	e.c.ReduceWords += len(buf)
}

// IallreduceSum implements engine.Engine. The post is its own (short) span;
// the returned request is wrapped so its eventual wait feeds the overlap
// ledger with the measured post→complete interval and residual wait.
func (e *Engine) IallreduceSum(buf []float64) engine.Request {
	sp := e.tr.Begin(obs.PhaseIallreducePost)
	h := e.tr.Post(len(buf))
	seq := e.collSeq
	e.collSeq++
	e.c.Iallreduce++
	e.c.ReduceWords += len(buf)
	req := e.f.iallreduceSum(e.rank, seq, buf)
	e.tr.End(sp)
	return engine.TraceRequest(req, e.tr, h)
}

// Charge implements engine.Engine.
func (e *Engine) Charge(flops, bytes float64) { e.c.Flops += flops }

// Counters implements engine.Engine. Comm-level fault statistics (timeouts,
// resends, checksum repairs) observed by this rank's fabric traffic are
// folded into the counters on every call, so solvers and reports see them
// without knowing about the fabric.
func (e *Engine) Counters() *trace.Counters {
	if e.f.tracking() {
		st := e.f.Stats(e.rank)
		e.c.CommTimeouts = st.Timeouts
		e.c.CommResends = st.Resends
		e.c.CommCorruptions = st.ChecksumFailures
	}
	return &e.c
}

// Barrier synchronizes all ranks.
func (e *Engine) Barrier() {
	seq := e.collSeq
	e.collSeq++
	if err := e.f.barrier(e.rank, seq); err != nil {
		panic(commPanic{err})
	}
}

// Scatter splits a global vector into per-rank local slices under pt.
func Scatter(pt partition.Partition, global []float64) [][]float64 {
	parts := make([][]float64, pt.P)
	for r := 0; r < pt.P; r++ {
		local := make([]float64, pt.Rows(r))
		copy(local, global[pt.Lo(r):pt.Hi(r)])
		parts[r] = local
	}
	return parts
}

// Gather reassembles per-rank local slices into a global vector.
func Gather(pt partition.Partition, parts [][]float64) []float64 {
	global := make([]float64, pt.N)
	for r := 0; r < pt.P; r++ {
		copy(global[pt.Lo(r):pt.Hi(r)], parts[r])
	}
	return global
}

// Run executes body concurrently on every engine (one goroutine per rank)
// and waits for all of them to finish — the SPMD launch.
func Run(engines []*Engine, body func(rank int, e *Engine)) {
	var wg sync.WaitGroup
	wg.Add(len(engines))
	for r, e := range engines {
		go func(r int, e *Engine) {
			defer wg.Done()
			body(r, e)
		}(r, e)
	}
	wg.Wait()
}

// commPanic wraps a fabric error so it can unwind a rank's solver stack from
// inside an engine kernel (whose interface has no error return) and be
// recovered by RunErr.
type commPanic struct{ err error }

// RunErr is the fault-tolerant SPMD launch: like Run, but each rank's body
// may return an error, and a fabric failure that unwinds a rank (deadline
// exhausted, mismatched collective) is recovered and reported as that rank's
// error instead of crashing the process. Any other panic is also captured —
// a chaos run must end with a verdict per rank, never a dead process.
func RunErr(engines []*Engine, body func(rank int, e *Engine) error) []error {
	errs := make([]error, len(engines))
	var wg sync.WaitGroup
	wg.Add(len(engines))
	for r, e := range engines {
		go func(r int, e *Engine) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if cp, ok := p.(commPanic); ok {
						errs[r] = cp.err
					} else {
						errs[r] = fmt.Errorf("comm: rank %d panic: %v", r, p)
					}
				}
			}()
			errs[r] = body(r, e)
		}(r, e)
	}
	wg.Wait()
	return errs
}
