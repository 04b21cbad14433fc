package blockcg

import (
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/vec"
)

// opKind tags the engine call a column is parked at.
type opKind uint8

const (
	opNone opKind = iota
	opSpMV
	opFused
	opPC
	opAllreduce
	opIallreduce
)

// gang is the rendezvous multiplexer: k column views over one base engine.
// Every colEngine call parks its operands and enters rendezvous; the LAST
// arriver (or a deregistering column) executes the whole batch under the
// mutex, in ascending column order, then wakes everyone. The base engine is
// therefore only ever driven by one goroutine at a time.
type gang struct {
	base engine.BlockSpMV

	mu     sync.Mutex
	cond   *sync.Cond
	cols   []*colEngine
	active int
	// arrived counts active columns currently parked at a pending op; the
	// invariant arrived == #pending holds at every mutex release.
	arrived int
	// poison, once set, is the panic value that killed the gang: a base
	// engine call blew up mid-batch (a comm fault, typically). Every parked
	// and future rendezvous re-panics it so all columns unwind promptly
	// instead of deadlocking on a batch that will never complete.
	poison any
}

func newGang(base engine.BlockSpMV, k int) *gang {
	g := &gang{base: base, active: k}
	g.cond = sync.NewCond(&g.mu)
	g.cols = make([]*colEngine, k)
	for i := range g.cols {
		g.cols[i] = &colEngine{g: g, idx: i}
	}
	return g
}

// rendezvous parks ce's pending op and blocks until an executor has run it.
// The last arriver executes the batch itself.
func (g *gang) rendezvous(ce *colEngine) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.poison != nil {
		panic(g.poison)
	}
	ce.pending = true
	g.arrived++
	if g.arrived == g.active {
		g.executeAllLocked()
		return
	}
	for ce.pending && g.poison == nil {
		g.cond.Wait()
	}
	if ce.pending {
		// Poisoned before our batch ran; unwind like everyone else.
		ce.pending = false
		g.arrived--
		panic(g.poison)
	}
}

// done deregisters a finished column. If its exit completes a rendezvous
// (everyone still running is already parked), the departing column executes
// the batch on its way out. A panic out of that batch is not the departing
// column's: it poisons the gang, and every column of the batch unwinds with
// it.
func (g *gang) done(ce *colEngine) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.active--
	if g.poison == nil && g.active > 0 && g.arrived == g.active {
		defer func() { recover() }()
		g.executeAllLocked()
	}
}

// executeAllLocked runs every pending op against the base engine, batching
// same-kind ops, and wakes the waiting columns. Called with g.mu held. A
// panic out of a base call poisons the gang before re-panicking.
func (g *gang) executeAllLocked() {
	batch := make([]*colEngine, 0, len(g.cols))
	for _, ce := range g.cols { // ascending column order, by construction
		if ce.pending {
			batch = append(batch, ce)
		}
	}
	defer func() {
		g.arrived = 0
		if p := recover(); p != nil {
			g.poison = p
			g.cond.Broadcast()
			panic(p)
		}
		for _, ce := range batch {
			ce.pending = false
		}
		g.cond.Broadcast()
	}()
	if len(batch) == 0 {
		return
	}
	kind := batch[0].kind
	uniform := true
	for _, ce := range batch[1:] {
		if ce.kind != kind {
			uniform = false
			break
		}
	}
	if uniform && len(batch) > 1 {
		switch kind {
		case opSpMV:
			g.executeBlockSpMV(batch)
			return
		case opAllreduce:
			g.executeBlockAllreduce(batch)
			return
		case opIallreduce:
			g.executeBlockIallreduce(batch)
			return
		}
	}
	// Mixed batch (columns at different algorithmic points — ladder
	// fallback, recovery restart, a converging monitor) or a kind with no
	// batched form: execute per column, ascending order. Slower, never
	// wrong — and deterministic, so distributed ranks stay aligned.
	for _, ce := range batch {
		g.executeOne(ce)
	}
}

// executeBlockSpMV collapses the batch into one engine.BlockSpMV call: one
// operator read, one packed halo round. The per-column flop charge is the
// measured base delta split evenly — exact, because the batch is k
// identical-shape products of integer-valued flop counts.
func (g *gang) executeBlockSpMV(batch []*colEngine) {
	dsts := make([][]float64, len(batch))
	srcs := make([][]float64, len(batch))
	for i, ce := range batch {
		dsts[i], srcs[i] = ce.dst, ce.src
	}
	before := g.base.Counters().SpMVFlops
	g.base.SpMVBlock(dsts, srcs)
	per := (g.base.Counters().SpMVFlops - before) / float64(len(batch))
	for _, ce := range batch {
		ce.flopsDelta = per
	}
}

// executeBlockAllreduce concatenates the columns' payloads into one
// blocking allreduce. Element-wise summation makes the packed reduction
// bit-identical per column to k separate ones.
func (g *gang) executeBlockAllreduce(batch []*colEngine) {
	bufs := make([][]float64, len(batch))
	total := 0
	for i, ce := range batch {
		bufs[i] = ce.buf
		total += len(ce.buf)
	}
	sp := g.base.BeginPhase(obs.PhaseBlockGram)
	concat := make([]float64, total)
	vec.Pack(concat, bufs)
	g.base.AllreduceSum(concat)
	vec.Unpack(bufs, concat)
	g.base.EndPhase(sp)
}

// executeBlockIallreduce posts ONE non-blocking reduction for the whole
// batch and hands every column the same shared request; the first Wait
// scatters the concatenated result back into the per-column buffers.
func (g *gang) executeBlockIallreduce(batch []*colEngine) {
	bufs := make([][]float64, len(batch))
	total := 0
	for i, ce := range batch {
		bufs[i] = ce.buf
		total += len(ce.buf)
	}
	sp := g.base.BeginPhase(obs.PhaseBlockGram)
	concat := make([]float64, total)
	vec.Pack(concat, bufs)
	req := g.base.IallreduceSum(concat)
	g.base.EndPhase(sp)
	sr := &sharedReq{req: req, concat: concat, parts: bufs}
	for _, ce := range batch {
		ce.req = sr
	}
}

// executeOne runs a single column's op against the base, measuring the
// flop delta the column's mirror ledger needs.
func (g *gang) executeOne(ce *colEngine) {
	c := g.base.Counters()
	switch ce.kind {
	case opSpMV:
		before := c.SpMVFlops
		g.base.SpMV(ce.dst, ce.src)
		ce.flopsDelta = c.SpMVFlops - before
	case opFused:
		before, pcBefore := c.SpMVFlops, c.PCFlops
		g.base.SpMVFusedDots(ce.dst, ce.src, ce.scale, ce.pc, ce.ws, ce.dots)
		ce.flopsDelta = c.SpMVFlops - before
		ce.pcFlopsDelta = c.PCFlops - pcBefore
	case opPC:
		before := c.PCFlops
		g.base.ApplyPC(ce.dst, ce.src)
		ce.flopsDelta = c.PCFlops - before
	case opAllreduce:
		g.base.AllreduceSum(ce.buf)
	case opIallreduce:
		ce.req = g.base.IallreduceSum(ce.buf)
	}
}

// sharedReq is the request all columns of a batched non-blocking reduction
// share. The first waiter drives the base request and scatters the packed
// result; later waiters see the memoized outcome. The mutex also publishes
// the scattered buffers across column goroutines.
type sharedReq struct {
	mu     sync.Mutex
	req    engine.Request
	concat []float64
	parts  [][]float64
	done   bool
}

func (r *sharedReq) Wait() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	r.req.Wait()
	vec.Unpack(r.parts, r.concat)
	r.done = true
}

// colEngine is one column's view of the shared base engine: every call
// parks its operands and enters the gang rendezvous, then books on the
// column's own Meter exactly what a solo engine would have booked — so a
// column's Counters (and with them the ReduceIndex values in its history)
// match a solo solve to the bit. The Meter has no tracer: the base engine
// spans the calls it runs.
type colEngine struct {
	engine.Meter
	g   *gang
	idx int

	// pending op slots, written by the column's goroutine before
	// rendezvous and read by the executor under the gang mutex.
	pending    bool
	kind       opKind
	dst, src   []float64
	scale      float64
	pc         bool
	ws         [][]float64
	dots       []float64
	buf        []float64
	req        engine.Request
	flopsDelta float64
	// pcFlopsDelta is the PC share of an opFused call that folded M⁻¹.
	pcFlopsDelta float64
}

var _ engine.Engine = (*colEngine)(nil)

func (ce *colEngine) NLocal() int  { return ce.g.base.NLocal() }
func (ce *colEngine) NGlobal() int { return ce.g.base.NGlobal() }

func (ce *colEngine) SpMV(dst, src []float64) {
	ce.kind, ce.dst, ce.src = opSpMV, dst, src
	ce.g.rendezvous(ce)
	ce.dst, ce.src = nil, nil
	ce.BookProducts(obs.Span{}, 1, ce.flopsDelta)
}

func (ce *colEngine) SpMVFusedDots(dst, src []float64, scale float64, pc bool, ws [][]float64, dots []float64) {
	ce.kind, ce.dst, ce.src, ce.scale, ce.pc, ce.ws, ce.dots = opFused, dst, src, scale, pc, ws, dots
	ce.g.rendezvous(ce)
	ce.dst, ce.src, ce.ws, ce.dots = nil, nil, nil, nil
	ce.BookProducts(obs.Span{}, 1, ce.flopsDelta)
	if pc {
		ce.BookPC(obs.Span{}, ce.pcFlopsDelta, true)
	}
}

// SpMVPowers declines: a powers block is one column's dependent chain, and
// the per-product fallback already shares one halo round per rendezvous
// across the gang.
func (ce *colEngine) SpMVPowers(dstR, dstU [][]float64, src []float64, scale float64) bool {
	return false
}

func (ce *colEngine) ApplyPC(dst, src []float64) {
	ce.kind, ce.dst, ce.src = opPC, dst, src
	ce.g.rendezvous(ce)
	ce.dst, ce.src = nil, nil
	ce.BookPC(obs.Span{}, ce.flopsDelta, false)
}

// PCDiagonal answers for the base engine's preconditioner — no rendezvous;
// the diagonal is read-only and shared by every column.
func (ce *colEngine) PCDiagonal() ([]float64, bool) { return ce.g.base.PCDiagonal() }

// AllreduceSum books the column's reduction once the batch delivered it; a
// failed batch poisons the gang and unwinds before anything is booked.
func (ce *colEngine) AllreduceSum(buf []float64) {
	ce.kind, ce.buf = opAllreduce, buf
	ce.g.rendezvous(ce)
	ce.buf = nil
	ce.BookReduce(obs.Span{}, len(buf), nil)
}

func (ce *colEngine) IallreduceSum(buf []float64) engine.Request {
	ce.kind, ce.buf = opIallreduce, buf
	ce.g.rendezvous(ce)
	ce.buf = nil
	req := ce.req
	ce.req = nil
	return ce.BookPost(obs.Span{}, req, len(buf))
}

// BeginPhase / EndPhase forward solver-level spans (gram, local_dots,
// recurrence_lc...) to the base engine — its tracer, which is
// mutex-protected and safe under concurrent column goroutines. Spans never
// touch numerics, so tracing on or off leaves the gang's results
// bit-identical.
func (ce *colEngine) BeginPhase(p obs.Phase) obs.Span { return ce.g.base.BeginPhase(p) }
func (ce *colEngine) EndPhase(sp obs.Span)            { ce.g.base.EndPhase(sp) }
