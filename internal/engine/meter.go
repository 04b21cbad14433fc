package engine

import (
	"repro/internal/obs"
	"repro/internal/trace"
)

// Recorder hears every call a Meter books, after it is booked — the seam a
// cost model records a run through (sim.Record installs one on its Seq).
// Sizes are the engine's own; the recorder prices them.
type Recorder interface {
	// Products hears k products, each with its own halo exchange (a block
	// of k shares one round on a distributed engine).
	Products(k int)
	// Powers hears a powers block of depth products over one deep
	// exchange; its products are not heard again one by one.
	Powers(depth int)
	// PCApply hears one application of M⁻¹, folded into a product or not.
	PCApply(folded bool)
	// Allreduce hears a blocking reduction that completed.
	Allreduce(words int)
	// Post hears a posted reduction and returns the id its Wait carries.
	Post(words int) (id int)
	// Wait hears the completed wait on the reduction posted as id.
	Wait(id int)
	// Charge hears charged local vector work.
	Charge(flops, bytes float64)
}

// Meter books the calls of one engine: it is the only code that writes the
// counters of a product, a PC application, a reduction or charged work,
// and it closes the call's span and overlap-ledger entry, then tells the
// optional Recorder. Engines embed it and keep only their arithmetic and
// the facts only they know (local nonzeros, halo rounds, measured flops).
//
// One rule holds for both kinds of reduction: one that never completes
// keeps its allreduce_wait span but enters neither the counters nor the
// ledger, and the recorder does not hear of it. A posted reduction is
// counted at its post, which has happened, and its wait enters the ledger
// only when it delivers.
type Meter struct {
	C trace.Counters

	// Tr is the optional observability tracer. Nil (the default) means no
	// tracing: every instrumentation site degrades to a nil check.
	Tr *obs.Tracer

	// Rec, when set, hears every booked call (sim's recording).
	Rec Recorder

	deep int // products left in the current powers block
}

// BeginPhase implements Engine.BeginPhase on the tracer.
func (m *Meter) BeginPhase(p obs.Phase) obs.Span { return m.Tr.Begin(p) }

// EndPhase implements Engine.EndPhase on the tracer.
func (m *Meter) EndPhase(sp obs.Span) { m.Tr.End(sp) }

// Counters implements Engine.Counters.
func (m *Meter) Counters() *trace.Counters { return &m.C }

// Charge implements Engine.Charge: every engine counts the flops, and the
// recorder prices flops and bytes.
func (m *Meter) Charge(flops, bytes float64) {
	m.C.Flops += flops
	if m.Rec != nil {
		m.Rec.Charge(flops, bytes)
	}
}

// BookProducts closes the product span sp and books k products costing
// flops in all over one halo exchange — none inside a powers block, whose
// one deep exchange BookPowers booked.
func (m *Meter) BookProducts(sp obs.Span, k int, flops float64) {
	m.Tr.End(sp)
	m.C.SpMV += k
	m.C.SpMVFlops += flops
	if m.deep > 0 {
		m.deep -= k
		return
	}
	m.C.HaloExchanges++
	if m.Rec != nil {
		m.Rec.Products(k)
	}
}

// BookPowers books the one deep exchange of a powers block of depth
// products; the block's products then book no exchange of their own.
func (m *Meter) BookPowers(depth int) {
	m.C.HaloExchanges++
	m.deep = depth
	if m.Rec != nil {
		m.Rec.Powers(depth)
	}
}

// BookPC closes the PC span sp (a zero Span for an M⁻¹ folded into a
// product) and books one application of M⁻¹ costing flops.
func (m *Meter) BookPC(sp obs.Span, flops float64, folded bool) {
	m.Tr.End(sp)
	m.C.PCApply++
	m.C.PCFlops += flops
	if m.Rec != nil {
		m.Rec.PCApply(folded)
	}
}

// PCFlops is the flops of one application of pc (nil: the identity).
func PCFlops(pc Preconditioner) float64 {
	if pc == nil {
		return 0
	}
	flops, _, _, _ := pc.WorkPerApply()
	return flops
}

// BookReduce closes the allreduce_wait span sp of a blocking reduction of
// words words that ended with err. Only a completed one (err nil) is
// counted and enters the ledger; BookReduce returns err.
func (m *Meter) BookReduce(sp obs.Span, words int, err error) error {
	if err != nil {
		m.Tr.End(sp)
		return err
	}
	m.Tr.EndBlocking(sp, words)
	m.C.Allreduce++
	m.C.ReduceWords += words
	if m.Rec != nil {
		m.Rec.Allreduce(words)
	}
	return nil
}

// BookPost opens the ledger entry of a reduction of words words just
// posted as req, closes its post span sp and books it. The returned request
// books the wait; with neither tracer nor recorder it is req itself.
func (m *Meter) BookPost(sp obs.Span, req Request, words int) Request {
	h := m.Tr.Post(words)
	m.Tr.End(sp)
	m.C.Iallreduce++
	m.C.ReduceWords += words
	if m.Tr == nil && m.Rec == nil {
		return req
	}
	r := meteredRequest{req: req, m: m, h: h}
	if m.Rec != nil {
		r.id = m.Rec.Post(words)
	}
	return r
}

// meteredRequest books the wait on a posted reduction: BeginWait when the
// solver blocks, then EndWait and the recorder's Wait when the reduction
// delivers, or AbortWait when the wait unwinds (a fabric fault).
type meteredRequest struct {
	req   Request
	m     *Meter
	h, id int
}

// Wait settles in a deferred call: a failed Wait unwinds with an Abort.
func (r meteredRequest) Wait() {
	r.m.Tr.BeginWait(r.h)
	ok := false
	defer func() { r.settle(ok) }()
	r.req.Wait()
	ok = true
}

func (r meteredRequest) settle(ok bool) {
	if !ok {
		r.m.Tr.AbortWait(r.h)
		return
	}
	r.m.Tr.EndWait(r.h)
	if r.m.Rec != nil {
		r.m.Rec.Wait(r.id)
	}
}
