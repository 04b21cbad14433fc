package sim

import (
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/trace"
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

// Engine runs real numerics on global vectors while recording cost events.
// It implements engine.Engine with a single actual rank; the modeled rank
// count is chosen later, at Evaluate time.
type Engine struct {
	A  *sparse.CSR
	PC engine.Preconditioner

	// Op, when set, is the operator the numerics run through (e.g. a
	// matrix-free stencil). The cost model still prices A — replay needs the
	// assembled structure for partition statistics — so A must describe the
	// same operator. Nil means A itself.
	Op engine.Operator

	// Decomp, when set, tells the cost model to use an analytic 3D box
	// decomposition (PETSc DMDA style) instead of 1D row blocks — the
	// realistic distribution for structured stencil problems.
	Decomp *partition.GridSpec

	// MatrixPowers makes the engine accept powers blocks (SpMVPowers) and
	// price each as one deep exchange plus redundant ghost-zone work — the
	// paper's §II ablation. Off by default: the modeled machine runs one
	// halo exchange per product, as the paper's experiments do.
	MatrixPowers bool

	c      trace.Counters
	events []event
	nextID int

	// curPhase is the solver phase currently open via BeginPhase
	// (obs.NumPhases when none); Charge stamps it onto evLocal events.
	curPhase obs.Phase

	pcFlops, pcBytes float64
	pcP2P, pcAllr    int
}

var _ engine.Engine = (*Engine)(nil)

// NewEngine returns a recording engine for A with the given preconditioner
// (nil means identity).
func NewEngine(a *sparse.CSR, pc engine.Preconditioner) *Engine {
	e := &Engine{A: a, PC: pc, curPhase: obs.NumPhases}
	if pc != nil {
		e.pcFlops, e.pcBytes, e.pcP2P, e.pcAllr = pc.WorkPerApply()
	}
	return e
}

// BeginPhase implements engine.Engine by tagging subsequent Charge
// events rather than reading any clock: the previous tag is parked in the
// returned span and restored by EndPhase, so nested sections compose.
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

// NLocal implements engine.Engine (the single real rank holds everything).
func (e *Engine) NLocal() int { return e.A.Rows }

// NGlobal implements engine.Engine.
func (e *Engine) NGlobal() int { return e.A.Rows }

// op returns the operator the numerics run through.
func (e *Engine) op() engine.Operator {
	if e.Op != nil {
		return e.Op
	}
	return e.A
}

// spmvEvent appends the modeled cost of one SPMV: 12 bytes per stored
// nonzero (value + column index) plus streaming the source and destination
// vectors.
func (e *Engine) spmvEvent() {
	nnz := float64(e.A.NNZ())
	e.c.SpMV++
	e.c.HaloExchanges++
	e.c.SpMVFlops += 2 * nnz
	e.events = append(e.events, event{kind: evSpMV, flops: 2 * nnz,
		bytes: 12*nnz + 16*float64(e.A.Rows)})
}

// SpMV implements engine.Engine. The real product runs on the shared worker
// pool (internal/par); the recorded event carries the modeled cost, which is
// a function of the matrix only — wall-clock parallelism never leaks into
// the virtual clock.
func (e *Engine) SpMV(dst, src []float64) {
	e.op().MulVec(dst, src)
	e.spmvEvent()
}

// SpMVFusedDots implements engine.Engine: same numerics as the fused
// operator kernel (bit-identical to Seq), priced as one SPMV event — plus,
// with pc set, the folded PC application (foldedPC). The scale/dot payload
// is charged by the caller, identically on every engine.
func (e *Engine) SpMVFusedDots(dst, src []float64, scale float64, pc bool, ws [][]float64, dots []float64) {
	op := e.op()
	rows, _ := op.Dims()
	var inv []float64
	if pc {
		inv = engine.InvDiagonal(e.PC)
	}
	engine.FusedApply(op, dst, src, 0, rows, 0, scale, inv, ws, dots)
	e.spmvEvent()
	if pc {
		e.foldedPC()
	}
}

// ApplyPC implements engine.Engine.
func (e *Engine) ApplyPC(dst, src []float64) {
	e.c.PCApply++
	if e.PC == nil {
		copy(dst, src)
		return
	}
	e.PC.Apply(dst, src)
	e.c.PCFlops += e.pcFlops
	e.events = append(e.events, event{kind: evPC, flops: e.pcFlops,
		bytes: e.pcBytes, p2pRounds: e.pcP2P, allreduces: e.pcAllr})
}

// foldedPC accounts a diagonal PC application that rode a product's
// write-back: the PC's flops, but of its bytes only the diagonal's stream —
// the product is neither written out nor read back (16 bytes per row).
func (e *Engine) foldedPC() {
	e.c.PCApply++
	if e.PC == nil {
		return
	}
	e.c.PCFlops += e.pcFlops
	bytes := math.Max(0, e.pcBytes-16*float64(e.A.Rows))
	e.events = append(e.events, event{kind: evPC, flops: e.pcFlops, bytes: bytes})
}

// PCDiagonal implements engine.Engine.
func (e *Engine) PCDiagonal() ([]float64, bool) { return engine.Diagonal(e.PC) }

// SpMVPowers implements engine.Engine for the MatrixPowers ablation:
// the numerics are the per-product chain (same kernels, same bits); the cost
// model prices one deep exchange plus the redundant ghost-zone work
// (Evaluate, case evMPK) and the preconditioner applications as usual —
// folded ones as foldedPC.
func (e *Engine) SpMVPowers(dstR, dstU [][]float64, src []float64, scale float64) bool {
	if !e.MatrixPowers {
		return false
	}
	op := e.op()
	rows, _ := op.Dims()
	nnz := float64(e.A.NNZ())
	fold := dstR == nil
	levels, inv := dstR, []float64(nil) // where each level's product lands
	if fold {
		levels, inv = dstU, engine.InvDiagonal(e.PC)
	}
	depth := float64(len(levels))
	e.c.HaloExchanges++
	e.events = append(e.events, event{kind: evMPK, depth: len(levels),
		flops: 2 * nnz * depth, bytes: (12*nnz + 16*float64(e.A.Rows)) * depth})
	for j := range levels {
		engine.FusedApply(op, levels[j], src, 0, rows, 0, scale, inv, nil, nil)
		e.c.SpMV++
		e.c.SpMVFlops += 2 * nnz
		src = levels[j]
		switch {
		case fold:
			e.foldedPC()
		case dstU != nil:
			e.ApplyPC(dstU[j], dstR[j])
			src = dstU[j]
		}
	}
	return true
}

// AllreduceSum implements engine.Engine (data is already global).
func (e *Engine) AllreduceSum(buf []float64) {
	e.c.Allreduce++
	e.c.ReduceWords += len(buf)
	e.events = append(e.events, event{kind: evAllreduce, words: len(buf)})
}

type simRequest struct {
	e  *Engine
	id int
}

func (r simRequest) Wait() {
	r.e.events = append(r.e.events, event{kind: evIWait, id: r.id})
}

// WaitTimeout records the wait; the data is already global, so it cannot
// time out.
func (r simRequest) WaitTimeout(time.Duration) error { r.Wait(); return nil }

// IallreduceSum implements engine.Engine.
func (e *Engine) IallreduceSum(buf []float64) engine.Request {
	e.c.Iallreduce++
	e.c.ReduceWords += len(buf)
	id := e.nextID
	e.nextID++
	e.events = append(e.events, event{kind: evIPost, words: len(buf), id: id})
	return simRequest{e: e, id: id}
}

// Charge implements engine.Engine. The event inherits the solver phase open
// at charge time (see BeginPhase); untagged work is attributed to the
// recurrence linear combinations at replay, the dominant local vector work.
func (e *Engine) Charge(flops, bytes float64) {
	e.c.Flops += flops
	e.events = append(e.events, event{kind: evLocal, flops: flops, bytes: bytes, phase: e.curPhase})
}

// Counters implements engine.Engine.
func (e *Engine) Counters() *trace.Counters { return &e.c }

// Events returns the number of recorded events (for tests).
func (e *Engine) Events() int { return len(e.events) }

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
