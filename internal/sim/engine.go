package sim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sparse"
)

type eventKind uint8

const (
	evSpMV eventKind = iota
	evPC
	evLocal
	evAllreduce
	evIPost
	evIWait
	evMPK // matrix powers kernel: `depth` SPMVs, one deep exchange
)

// event is one recorded kernel invocation. Sizes are global; Evaluate
// derives per-rank costs from partition statistics.
type event struct {
	kind         eventKind
	flops, bytes float64
	words        int // reduce payload in float64 words
	id           int // matches an evIPost to its evIWait
	p2pRounds    int // PC-internal neighbor exchanges
	allreduces   int // PC-internal reductions
	depth        int // evMPK: number of chained products

	// phase tags evLocal events with the solver phase active when the work
	// was charged (obs.NumPhases = untagged). The wall clock never enters
	// the recording; phases materialize into timeline spans at replay time
	// on the virtual clock, which is what keeps sim timelines
	// bit-reproducible.
	phase obs.Phase
}

// inner names the embedded engine: an unexported field, so the recorder
// forwards every call it does not price without exposing a settable one.
type inner = engine.Engine

// Engine records the cost events of a solve whose numerics and counters
// belong to the engine it embeds — one rank holding the global vectors, an
// engine.Seq under NewEngine — so its values and counters are that engine's
// by construction. It overrides only the calls it prices, each forwarding
// and then appending its event; the modeled rank count is chosen later, at
// Evaluate time.
type Engine struct {
	inner

	// A is the assembled operator the cost model prices — replay needs its
	// structure for partition statistics — and PC the preconditioner whose
	// WorkPerApply prices ApplyPC. Both describe what the inner engine
	// applies, which may run A matrix-free.
	A  *sparse.CSR
	PC engine.Preconditioner

	// Decomp, when set, tells the cost model to use an analytic 3D box
	// decomposition (PETSc DMDA style) instead of 1D row blocks — the
	// realistic distribution for structured stencil problems.
	Decomp *partition.GridSpec

	// MatrixPowers makes the engine accept powers blocks (SpMVPowers) and
	// price each as one deep exchange plus redundant ghost-zone work — the
	// paper's §II ablation. Off by default: the modeled machine runs one
	// halo exchange per product, as the paper's experiments do.
	MatrixPowers bool

	events []event
	nextID int

	// curPhase is the solver phase currently open via BeginPhase
	// (obs.NumPhases when none); Charge stamps it onto evLocal events.
	curPhase obs.Phase

	pcEv event // one ApplyPC, priced by PC.WorkPerApply
}

var _ engine.Engine = (*Engine)(nil)

// NewEngine returns a recorder over engine.NewSeq(a, pc): A with the given
// preconditioner (nil means identity), applied as the assembled matrix.
func NewEngine(a *sparse.CSR, pc engine.Preconditioner) *Engine {
	return Record(engine.NewSeq(a, pc), a, pc)
}

// Record returns a recorder over in, which must hold all a.Rows rows (events
// are priced at global sizes) and apply a — possibly matrix-free — with the
// preconditioner pc.
func Record(in engine.Engine, a *sparse.CSR, pc engine.Preconditioner) *Engine {
	if in.NLocal() != a.Rows {
		panic(fmt.Sprintf("sim: recording an engine with %d of %d rows", in.NLocal(), a.Rows))
	}
	e := &Engine{inner: in, A: a, PC: pc, curPhase: obs.NumPhases, pcEv: event{kind: evPC}}
	if pc != nil {
		e.pcEv.flops, e.pcEv.bytes, e.pcEv.p2pRounds, e.pcEv.allreduces = pc.WorkPerApply()
	}
	return e
}

// BeginPhase implements engine.Engine by tagging subsequent Charge
// events rather than reading any clock: the previous tag is parked in the
// returned span and restored by EndPhase, so nested sections compose. The
// inner engine is not told — the recording, not a wall-clock tracer, is
// where a sim run's phases live.
func (e *Engine) BeginPhase(p obs.Phase) obs.Span {
	prev := e.curPhase
	e.curPhase = p
	return obs.PhaseMark(prev)
}

// EndPhase implements engine.Engine.
func (e *Engine) EndPhase(sp obs.Span) {
	if sp.Live() {
		e.curPhase = sp.Phase()
	} else {
		e.curPhase = obs.NumPhases
	}
}

// spmvEvent appends the modeled cost of one SPMV: 12 bytes per stored
// nonzero (value + column index) plus streaming the source and destination
// vectors.
func (e *Engine) spmvEvent() {
	nnz := float64(e.A.NNZ())
	e.events = append(e.events, event{kind: evSpMV, flops: 2 * nnz,
		bytes: 12*nnz + 16*float64(e.A.Rows)})
}

// pcEvent appends the modeled cost of one application of M⁻¹ (none for the
// identity). A folded one rode a product's write-back: the PC's flops, but
// of its bytes only the diagonal's stream — the product is neither written
// out nor read back (16 bytes per row).
func (e *Engine) pcEvent(folded bool) {
	if e.PC == nil {
		return
	}
	ev := e.pcEv
	if folded { // a diagonal M: no internal exchanges
		ev = event{kind: evPC, flops: ev.flops, bytes: math.Max(0, ev.bytes-16*float64(e.A.Rows))}
	}
	e.events = append(e.events, ev)
}

// SpMV implements engine.Engine. The recorded event carries the modeled
// cost, a function of the matrix only — how many threads the inner engine
// runs the product on never leaks into the virtual clock.
func (e *Engine) SpMV(dst, src []float64) {
	e.inner.SpMV(dst, src)
	e.spmvEvent()
}

// SpMVFusedDots implements engine.Engine, priced as one SPMV event plus,
// with pc set, the folded PC application. The scale/dot payload is charged
// by the caller, identically on every engine.
func (e *Engine) SpMVFusedDots(dst, src []float64, scale float64, pc bool, ws [][]float64, dots []float64) {
	e.inner.SpMVFusedDots(dst, src, scale, pc, ws, dots)
	e.spmvEvent()
	if pc {
		e.pcEvent(true)
	}
}

// ApplyPC implements engine.Engine.
func (e *Engine) ApplyPC(dst, src []float64) {
	e.inner.ApplyPC(dst, src)
	e.pcEvent(false)
}

// SpMVPowers implements engine.Engine for the MatrixPowers ablation: the
// numerics are the per-product chain through the inner engine's
// SpMVFusedDots (plus this engine's ApplyPC in twin space), so values and
// counters are those of the loop the caller would run — except
// HaloExchanges, which counts one per block, the exchange the kernel saves.
// The cost model prices one deep exchange plus the redundant ghost-zone work
// (Evaluate, case evMPK) and the preconditioner applications as usual.
func (e *Engine) SpMVPowers(dstR, dstU [][]float64, src []float64, scale float64) bool {
	if !e.MatrixPowers {
		return false
	}
	fold := dstR == nil
	levels := dstR // where each level's product lands
	if fold {
		levels = dstU
	}
	nnz, depth := float64(e.A.NNZ()), float64(len(levels))
	e.events = append(e.events, event{kind: evMPK, depth: len(levels),
		flops: 2 * nnz * depth, bytes: (12*nnz + 16*float64(e.A.Rows)) * depth})
	c := e.Counters()
	halo := c.HaloExchanges
	for j := range levels {
		e.inner.SpMVFusedDots(levels[j], src, scale, fold, nil, nil)
		src = levels[j]
		switch {
		case fold:
			e.pcEvent(true)
		case dstU != nil:
			e.ApplyPC(dstU[j], dstR[j])
			src = dstU[j]
		}
	}
	c.HaloExchanges = halo + 1
	return true
}

// AllreduceSum implements engine.Engine.
func (e *Engine) AllreduceSum(buf []float64) {
	e.inner.AllreduceSum(buf)
	e.events = append(e.events, event{kind: evAllreduce, words: len(buf)})
}

// simRequest records the wait on the inner engine's request once it
// delivers.
type simRequest struct {
	engine.Request
	e  *Engine
	id int
}

func (r simRequest) Wait() {
	r.Request.Wait()
	r.e.events = append(r.e.events, event{kind: evIWait, id: r.id})
}

func (r simRequest) WaitTimeout(d time.Duration) error {
	if err := r.Request.WaitTimeout(d); err != nil {
		return err
	}
	r.e.events = append(r.e.events, event{kind: evIWait, id: r.id})
	return nil
}

// IallreduceSum implements engine.Engine.
func (e *Engine) IallreduceSum(buf []float64) engine.Request {
	req := e.inner.IallreduceSum(buf)
	id := e.nextID
	e.nextID++
	e.events = append(e.events, event{kind: evIPost, words: len(buf), id: id})
	return simRequest{Request: req, e: e, id: id}
}

// Charge implements engine.Engine. The event inherits the solver phase open
// at charge time (see BeginPhase); untagged work is attributed to the
// recurrence linear combinations at replay, the dominant local vector work.
func (e *Engine) Charge(flops, bytes float64) {
	e.inner.Charge(flops, bytes)
	e.events = append(e.events, event{kind: evLocal, flops: flops, bytes: bytes, phase: e.curPhase})
}

// Breakdown is the modeled execution time of a recorded run on a machine
// with p ranks, split by where the time goes.
type Breakdown struct {
	P     int
	Total float64
	// Compute covers SPMV + PC + local vector work.
	Compute float64
	// Halo is the neighbor-exchange time of SPMVs and PC-internal rounds.
	Halo float64
	// ReduceExposed is allreduce time the ranks idle for; ReduceHidden is
	// allreduce time overlapped behind compute (zero for blocking methods).
	ReduceExposed float64
	ReduceHidden  float64
}

// Evaluate replays the recorded event stream against machine m with p
// modeled ranks and returns the timing breakdown. The matrix is partitioned
// by balanced nonzeros, and per-event costs use the most loaded rank
// (BSP-style max).
func (e *Engine) Evaluate(m Machine, p int) Breakdown {
	b, _ := e.replay(m, p, false, nil)
	return b
}

// Timeline replays the run and returns the virtual clock value at the
// completion of every global reduction (blocking allreduces and Iallreduce
// waits, in order). Paired with a solver's residual history — one reduction
// per convergence check — it yields the residual-versus-time trajectories of
// the paper's Fig. 5.
func (e *Engine) Timeline(m Machine, p int) []float64 {
	_, tl := e.replay(m, p, true, nil)
	return tl
}

// Trace replays the recorded run against machine m with p modeled ranks and
// emits the phase timeline and overlap ledger into tr on the virtual clock
// (nanoseconds = modeled seconds × 1e9). The emission is a pure function of
// the recorded events and the machine model — no wall clock — so two Trace
// calls over the same run produce byte-identical summaries: the determinism
// contract sim's timeline tests pin.
func (e *Engine) Trace(m Machine, p int, tr *obs.Tracer) Breakdown {
	b, _ := e.replay(m, p, false, tr)
	return b
}

func (e *Engine) replay(m Machine, p int, wantTimeline bool, tr *obs.Tracer) (Breakdown, []float64) {
	if p < 1 {
		panic("sim: p must be positive")
	}
	var st partition.Stats
	if e.Decomp != nil {
		st = e.Decomp.Stats(e.A.NNZ(), p)
	} else {
		pt := partition.RowBlockByNNZ(e.A, p)
		st = partition.ComputeStats(e.A, pt)
	}

	n := float64(e.A.Rows)
	nnzTotal := float64(e.A.NNZ())
	rowShare := float64(st.MaxRows) / n
	nnzShare := 1.0 / float64(p)
	if nnzTotal > 0 {
		nnzShare = float64(st.MaxNNZ) / nnzTotal
	}
	haloTime := float64(st.MaxNeighbors)*m.P2PAlpha + m.P2PBeta*8*float64(st.MaxHaloCols)

	var b Breakdown
	b.P = p
	clock := 0.0
	var timeline []float64
	type pending struct {
		post  float64
		g     float64
		words int
	}
	inflight := map[int]pending{}

	// ns converts the virtual clock (seconds) to tracer nanoseconds. The
	// float64→int64 rounding is deterministic, so identical replays emit
	// identical spans.
	ns := func(t float64) int64 { return int64(math.Round(t * 1e9)) }
	span := func(ph obs.Phase, start, end float64) {
		tr.AddSpanAt(ph, ns(start), ns(end))
	}

	// Matrix-powers-kernel cost terms, cached by depth.
	type mpkCost struct {
		haloTime float64
		redFlops float64
		redBytes float64
	}
	mpkCache := map[int]mpkCost{}
	mpkFor := func(depth int) mpkCost {
		if c, ok := mpkCache[depth]; ok {
			return c
		}
		var deep partition.Stats
		redundant := 0
		if e.Decomp != nil {
			deep, redundant = e.Decomp.PowersStats(e.A.NNZ(), p, depth)
		} else {
			deep = st
			deep.MaxHaloCols *= depth
			redundant = st.MaxHaloCols * depth * (depth - 1) / 2
		}
		avgRowNNZ := 0.0
		if e.A.Rows > 0 {
			avgRowNNZ = float64(e.A.NNZ()) / float64(e.A.Rows)
		}
		c := mpkCost{
			haloTime: float64(deep.MaxNeighbors)*m.P2PAlpha + m.P2PBeta*8*float64(deep.MaxHaloCols),
			redFlops: 2 * float64(redundant) * avgRowNNZ,
			redBytes: float64(redundant) * (12*avgRowNNZ + 16),
		}
		mpkCache[depth] = c
		return c
	}

	for _, ev := range e.events {
		switch ev.kind {
		case evSpMV:
			t := m.Roofline(ev.flops*nnzShare, ev.bytes*nnzShare)
			span(obs.PhaseHaloWait, clock, clock+haloTime)
			span(obs.PhaseSpMV, clock+haloTime, clock+haloTime+t)
			clock += t + haloTime
			b.Compute += t
			b.Halo += haloTime
		case evMPK:
			c := mpkFor(ev.depth)
			t := m.Roofline(ev.flops*nnzShare+c.redFlops, ev.bytes*nnzShare+c.redBytes)
			span(obs.PhaseHaloWait, clock, clock+c.haloTime)
			span(obs.PhaseSpMV, clock+c.haloTime, clock+c.haloTime+t)
			clock += t + c.haloTime
			b.Compute += t
			b.Halo += c.haloTime
		case evPC:
			t := m.Roofline(ev.flops*rowShare, ev.bytes*rowShare)
			comm := float64(ev.p2pRounds) * haloTime
			g := float64(ev.allreduces) * m.G(p, 1)
			span(obs.PhasePCApply, clock, clock+t)
			if comm > 0 {
				span(obs.PhaseHaloWait, clock+t, clock+t+comm)
			}
			if g > 0 {
				span(obs.PhaseAllreduceWait, clock+t+comm, clock+t+comm+g)
			}
			clock += t + comm + g
			b.Compute += t
			b.Halo += comm
			b.ReduceExposed += g
		case evLocal:
			t := m.Roofline(ev.flops*rowShare, ev.bytes*rowShare)
			ph := ev.phase
			if ph >= obs.NumPhases {
				ph = obs.PhaseRecurrenceLC
			}
			span(ph, clock, clock+t)
			clock += t
			b.Compute += t
		case evAllreduce:
			g := m.G(p, ev.words)
			span(obs.PhaseAllreduceWait, clock, clock+g)
			tr.AddReductionAt(obs.Reduction{
				Words: ev.words, Blocking: true,
				PostNS: ns(clock), WaitStartNS: ns(clock), DoneNS: ns(clock + g),
			})
			clock += g
			b.ReduceExposed += g
			if wantTimeline {
				timeline = append(timeline, clock)
			}
		case evIPost:
			span(obs.PhaseIallreducePost, clock, clock)
			inflight[ev.id] = pending{post: clock, g: m.Gnb(p, ev.words), words: ev.words}
		case evIWait:
			pd, ok := inflight[ev.id]
			if !ok {
				panic("sim: Wait without matching Iallreduce post")
			}
			delete(inflight, ev.id)
			elapsed := clock - pd.post
			exposed := math.Max(0, pd.g-m.AsyncProgress*elapsed)
			span(obs.PhaseAllreduceWait, clock, clock+exposed)
			tr.AddReductionAt(obs.Reduction{
				Words:          pd.words,
				PostNS:         ns(pd.post),
				WaitStartNS:    ns(clock),
				DoneNS:         ns(clock + exposed),
				ComputeUnderNS: ns(elapsed),
			})
			clock += exposed
			b.ReduceExposed += exposed
			b.ReduceHidden += pd.g - exposed
			if wantTimeline {
				timeline = append(timeline, clock)
			}
		}
	}
	b.Total = clock
	return b, timeline
}

// Sweep evaluates the recorded run for every rank count in ps.
func (e *Engine) Sweep(m Machine, ps []int) []Breakdown {
	out := make([]Breakdown, len(ps))
	for i, p := range ps {
		out[i] = e.Evaluate(m, p)
	}
	return out
}
