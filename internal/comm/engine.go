package comm

import (
	"errors"
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
	// Meter books every call on this rank's counters and optional tracer
	// (real wall clock; set it with SetTracer).
	engine.Meter

	f    *Fabric
	rank int
	a    *sparse.CSR     // shared, read-only: partition/halo structure + cost accounting
	op   engine.Operator // shared, read-only: the operator the numerics apply
	pc   engine.Preconditioner

	lo, hi int
	flops  float64 // one product's SPMV flops over the owned rows

	// cols are the full-length source buffers a ghost exchange stages
	// into, one per column of a block; cols[0] is the scalar products'.
	cols [][]float64

	// shallow is the products' ghost exchange (scalar and block); see
	// ghostExchange for the send-buffer discipline.
	shallow ghostExchange

	collSeq int // collective sequence counter, advanced identically on all ranks
	haloSeq int

	// matrix powers kernel state — see powers.go.
	pcf    PCFactory
	powers *powersPlans          // shared by the fabric's engines
	deep   map[int]*deepExchange // this rank's exchange state, by depth
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
		lo, hi := pt.Lo(r), pt.Hi(r)
		e := &Engine{
			f: f, rank: r, a: a, op: op, lo: lo, hi: hi,
			flops:   2 * float64(a.RowPtr[hi]-a.RowPtr[lo]),
			cols:    [][]float64{make([]float64, a.Cols)},
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
func (e *Engine) SetTracer(tr *obs.Tracer) { e.Tr = tr }

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
// products' shallow halo, or a matrix powers plan's deep one: peers in
// ascending rank order and the count of rounds done. Send buffers alternate
// by that count, so a round allocates nothing: a rank cannot start round
// n+2 of an exchange before a neighbor has consumed its payload of round n,
// because completing n+1 needs that neighbor's n+1 payload, which the
// neighbor only sends after its own receives of n finished. (That needs
// every neighbor sent to to be received from as well: true of a halo over a
// structurally symmetric matrix, checked for deep plans by worthwhile.)
//
// A round carries k source columns back to back (column-major: column 0's
// rows, then column 1's, ...) — k = 1 for a scalar or deep round, the batch
// width for a block product — as a prefix of the parity buffer, which grows
// (both parities at once) to the widest round seen. Both sides derive the
// layout from the peer lists and k alone; a gang's batch composition is a
// deterministic function of its columns' algorithms, so k agrees on every
// rank.
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

// exchangeGhosts stages each source column into its full-length buffer in
// cols and swaps ghost values with the exchange's neighbors in one message
// round (one halo_wait span).
func (e *Engine) exchangeGhosts(x *ghostExchange, srcs ...[]float64) {
	for len(e.cols) < len(srcs) {
		e.cols = append(e.cols, make([]float64, len(e.cols[0])))
	}
	for j, src := range srcs {
		copy(e.cols[j][e.lo:e.hi], src)
	}

	halo := e.Tr.Begin(obs.PhaseHaloWait)
	seq := e.haloSeq
	e.haloSeq++
	parity := x.count & 1
	x.count++
	for i := range x.send {
		p := &x.send[i]
		n := len(p.idx)
		if len(p.bufs[parity]) < n*len(srcs) {
			p.bufs = [2][]float64{make([]float64, n*len(srcs)), make([]float64, n*len(srcs))}
		}
		out := p.bufs[parity][:n*len(srcs)]
		for j, src := range srcs {
			seg := out[j*n : (j+1)*n]
			for k, row := range p.idx {
				seg[k] = src[row-e.lo]
			}
		}
		e.f.send(e.rank, p.rank, kindHalo, seq, out)
	}
	for i := range x.recv {
		p := &x.recv[i]
		in, err := e.f.recv(e.rank, p.rank, kindHalo, seq)
		if err != nil {
			panic(engine.Abort{Err: err})
		}
		n := len(p.idx)
		for j := range srcs {
			dst, seg := e.cols[j], in[j*n:(j+1)*n]
			for k, col := range p.idx {
				dst[col] = seg[k]
			}
		}
	}
	e.Tr.End(halo)
}

// SpMV implements engine.Engine: exchanges halo values with neighbors, then
// applies the local rows.
func (e *Engine) SpMV(dst, src []float64) {
	e.exchangeGhosts(&e.shallow, src)

	// Local rows through the shared parallel kernel layer. All ranks of this
	// process share one worker pool (see internal/par), so R ranks never
	// fan out to R×W goroutines.
	sp := e.Tr.Begin(obs.PhaseSpMV)
	e.op.MulVecRangeInto(dst, e.cols[0], e.lo, e.hi)
	e.BookProducts(sp, 1, e.flops)
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
	sp := e.Tr.Begin(obs.PhaseSpMV)
	e.op.MulVecFusedDiag(dst, e.cols[0], e.lo, e.hi, e.lo, scale, inv, ws, dots)
	e.BookProducts(sp, 1, e.flops)
	if pc {
		e.BookPC(obs.Span{}, engine.PCFlops(e.pc), true)
	}
}

// ApplyPC implements engine.Engine.
func (e *Engine) ApplyPC(dst, src []float64) {
	sp := e.Tr.Begin(obs.PhasePCApply)
	if e.pc == nil {
		copy(dst, src)
	} else {
		e.pc.Apply(dst, src)
	}
	e.BookPC(sp, engine.PCFlops(e.pc), false)
}

// PCDiagonal implements engine.Engine.
func (e *Engine) PCDiagonal() ([]float64, bool) { return engine.Diagonal(e.pc) }

// AllreduceSum implements engine.Engine. A fabric failure (deadline
// exhausted with nothing recoverable) unwinds as an engine.Abort that
// comm.RunErr converts back into the *FaultError. The whole call is one
// allreduce_wait span and, once it completed, a blocking ledger entry:
// nothing overlaps it.
func (e *Engine) AllreduceSum(buf []float64) {
	sp := e.Tr.Begin(obs.PhaseAllreduceWait)
	seq := e.collSeq
	e.collSeq++
	if err := e.BookReduce(sp, len(buf), e.f.allreduceSum(e.rank, seq, buf)); err != nil {
		panic(engine.Abort{Err: err})
	}
}

// IallreduceSum implements engine.Engine. The post is its own (short) span;
// the returned request books its eventual wait with the measured
// post→complete interval and residual wait.
func (e *Engine) IallreduceSum(buf []float64) engine.Request {
	sp := e.Tr.Begin(obs.PhaseIallreducePost)
	seq := e.collSeq
	e.collSeq++
	return e.BookPost(sp, e.f.iallreduceSum(e.rank, seq, buf), len(buf))
}

// Counters implements engine.Engine. Comm-level fault statistics (timeouts,
// resends, checksum repairs) observed by this rank's fabric traffic are
// folded into the counters on every call, so solvers and reports see them
// without knowing about the fabric.
func (e *Engine) Counters() *trace.Counters {
	if e.f.tracking() {
		st := e.f.Stats(e.rank)
		e.C.CommTimeouts = st.Timeouts
		e.C.CommResends = st.Resends
		e.C.CommCorruptions = st.ChecksumFailures
	}
	return &e.C
}

// Barrier synchronizes all ranks.
func (e *Engine) Barrier() {
	seq := e.collSeq
	e.collSeq++
	if err := e.f.barrier(e.rank, seq); err != nil {
		panic(engine.Abort{Err: err})
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

// RunErr is the fault-tolerant SPMD launch: like Run, but each rank's body
// may return an error, and a fabric failure that unwinds a rank (deadline
// exhausted, mismatched collective) is recovered and reported as that rank's
// error instead of crashing the process. Any other panic is also captured —
// a chaos run must end with a verdict per rank, never a dead process.
//
// A rank whose body unwinds for a reason of its own — an engine.Abort not
// carrying the fabric's *FaultError (a canceled job), or any other panic —
// will never send again, so it wakes the fabric: every peer blocked in a
// receive, now or later, fails with a FaultClosed that wraps this rank's
// error. A rank the fabric itself failed wakes nothing (its peers meet the
// same deadline), and neither does a rank that returns, error or not.
func RunErr(engines []*Engine, body func(rank int, e *Engine) error) []error {
	errs := make([]error, len(engines))
	var wg sync.WaitGroup
	wg.Add(len(engines))
	for r, e := range engines {
		go func(r int, e *Engine) {
			defer wg.Done()
			unwound := true
			defer func() {
				var fe *FaultError
				if unwound && !errors.As(errs[r], &fe) {
					e.f.leave(r, errs[r])
				}
			}()
			defer engine.Recover(&errs[r], func(p any) {
				errs[r] = fmt.Errorf("comm: rank %d panic: %v", r, p)
			})
			errs[r] = body(r, e)
			unwound = false
		}(r, e)
	}
	wg.Wait()
	return errs
}
