// Package obs is the per-rank observability plane: a low-overhead span/phase
// tracer that records where a rank's wall-clock time goes, and an overlap
// ledger that measures — rather than infers — how much of every non-blocking
// reduction was hidden behind compute.
//
// The paper's headline claim is temporal: PIPE-sCG/PIPE-PsCG hide one
// non-blocking allreduce per s iterations behind s SPMVs and s PC
// applications. trace.Counters can count those kernels; this package times
// them. Every engine kernel and every solver hot section opens a span tagged
// with one member of the frozen Phase enum; completed spans land in a
// fixed-capacity ring (the timeline), accumulate into per-phase duration
// statistics (histograms on /metrics), and — for the reduction phases — feed
// the overlap ledger, which records for each reduction the post→complete
// interval, the compute time elapsed under it, and the residual wait. The
// hidden fraction 1 − wait/interval is the measured counterpart of the
// "hidden fraction" metric in Cools et al.'s reduction-pipelining work.
//
// The tracer is strictly observational and nil-safe: every method on a nil
// *Tracer is a no-op, so engines and solvers instrument unconditionally and
// pay one nil check when tracing is off. Tracing never touches numerics —
// the audit harness's bit-identity sweep passes unchanged with tracing on
// and off (AuditParams.Trace).
//
// Clocks are injectable. The real runtimes (engine.Seq, comm.Engine) use a
// monotonic wall clock; sim.Engine replays its recorded cost events against
// the deterministic virtual clock of the machine model, so a sim timeline is
// bit-reproducible run to run.
package obs

import (
	"fmt"
	"sync"
	"time"
)

// Phase is one member of the frozen phase enum. The names and order are
// stable: dashboards, the Chrome trace export and the Prometheus series on
// solverd's /metrics all key on them. New phases append; existing values
// never renumber.
type Phase uint8

const (
	PhaseSpMV           Phase = iota // local rows of A·x (halo excluded)
	PhasePCApply                     // preconditioner application
	PhaseLocalDots                   // rank-local dot products feeding a reduction
	PhaseGram                        // s-step Gram/moment payload assembly
	PhaseRecurrenceLC                // recurrence linear combinations (VMAs, block updates)
	PhaseAllreduceWait               // stalled in a blocking allreduce or a Wait
	PhaseIallreducePost              // posting a non-blocking allreduce
	PhaseHaloWait                    // neighbor-exchange pack/send/recv of the SPMV
	PhaseRecovery                    // recovery bookkeeping (restarts, replacements)

	// NumCorePhases bounds the original single-RHS phase set. Every engine
	// backend emits all of these on every rank during a normal solve, so
	// timeline validators may require them; the block phases below appear
	// only when a multi-RHS gang is driving the engine.
	NumCorePhases
)

// Block (multi-RHS) phases — emitted by the blockcg gang and the engines'
// SpMVBlock kernels. Appended after NumCorePhases so the core set stays
// frozen; validators that predate them must not demand them on every rank.
const (
	PhaseBlockSpMV Phase = NumCorePhases + iota // batched SPMV: one operator read shared by k columns
	PhaseBlockGram                              // batched reduction pack/scatter of k columns' payloads

	// NumPhases bounds the enum; it is NOT a phase.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"spmv", "pc_apply", "local_dots", "gram", "recurrence_lc",
	"allreduce_wait", "iallreduce_post", "halo_wait", "recovery",
	"block_spmv", "block_gram",
}

// String returns the frozen snake_case name.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Phases returns every phase in declaration order.
func Phases() []Phase {
	out := make([]Phase, NumPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// CorePhases returns the phases every backend emits on every rank of every
// solve — the set completeness validators (cmd/timeline) may require.
// Block phases (PhaseBlockSpMV, PhaseBlockGram) are excluded: they appear
// only when a multi-RHS gang runs on the engine.
func CorePhases() []Phase {
	return Phases()[:NumCorePhases]
}

// waiting reports whether a phase represents stalled (non-compute) time.
// Everything else counts toward the compute clock the overlap ledger uses
// to attribute "time hidden under a posted reduction".
func (p Phase) waiting() bool { return p == PhaseAllreduceWait || p == PhaseHaloWait }

// Span is an open phase interval. It is a value (no allocation per span);
// Live reports whether it came from a live tracer.
type Span struct {
	phase Phase
	start int64
	live  bool
}

// Live reports whether ending this span will record anything.
func (s Span) Live() bool { return s.live }

// Phase returns the span's phase tag.
func (s Span) Phase() Phase { return s.phase }

// PhaseMark returns a span carrying only a phase tag, no timestamps. The sim
// engine implements BeginPhase/EndPhase with these: BeginPhase swaps its
// current-phase tag and parks the previous one in the returned span, so the
// recorded cost events — not wall time — carry the phase, and the timeline
// materializes later on the deterministic virtual clock.
func PhaseMark(p Phase) Span { return Span{phase: p, live: true} }

// Event is one completed span in the timeline ring. Times are nanoseconds on
// the tracer's clock (monotonic wall time, or the sim's virtual clock).
type Event struct {
	Phase   Phase
	StartNS int64
	EndNS   int64
}

// Reduction is one overlap-ledger entry: a global reduction's measured
// lifetime on this rank. For a non-blocking reduction PostNS is when the
// rank posted it, WaitStartNS when the rank began waiting on it, DoneNS when
// the wait returned; ComputeUnderNS is the traced non-waiting span time that
// elapsed between post and wait start. A blocking allreduce is recorded with
// PostNS == WaitStartNS (nothing can hide it), so its hidden fraction is 0
// by construction.
type Reduction struct {
	Words          int
	Blocking       bool
	PostNS         int64
	WaitStartNS    int64
	DoneNS         int64
	ComputeUnderNS int64
}

// IntervalNS is the post→complete interval.
func (r Reduction) IntervalNS() int64 { return r.DoneNS - r.PostNS }

// WaitNS is the residual wait the rank actually stalled for.
func (r Reduction) WaitNS() int64 { return r.DoneNS - r.WaitStartNS }

// HiddenFraction is the measured fraction of the reduction's post→complete
// interval the rank spent NOT stalled on it: 1 − wait/interval, clamped to
// [0, 1]. A blocking reduction reports 0; a degenerate zero-length interval
// reports 0.
func (r Reduction) HiddenFraction() float64 {
	iv := r.IntervalNS()
	if iv <= 0 {
		return 0
	}
	h := 1 - float64(r.WaitNS())/float64(iv)
	if h < 0 {
		return 0
	}
	if h > 1 {
		return 1
	}
	return h
}

// DurationBuckets are the per-phase histogram bounds in seconds (cumulative,
// Prometheus convention; +Inf is implicit). Log-spaced from 1µs to 10s —
// kernels on one rank live at the bottom, recovery and stalled collectives
// at the top.
var DurationBuckets = [...]float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10,
}

// PhaseStat is the accumulated duration statistics of one phase.
type PhaseStat struct {
	Count   int64
	TotalNS int64
	MaxNS   int64
	// Buckets are non-cumulative counts per DurationBuckets bound; the last
	// element is the +Inf overflow bucket.
	Buckets [len(DurationBuckets) + 1]int64
}

// add folds a span duration into the stat.
func (s *PhaseStat) add(durNS int64) {
	s.Count++
	s.TotalNS += durNS
	if durNS > s.MaxNS {
		s.MaxNS = durNS
	}
	sec := float64(durNS) / 1e9
	i := 0
	for i < len(DurationBuckets) && sec > DurationBuckets[i] {
		i++
	}
	s.Buckets[i]++
}

// Merge folds another stat into s (bucket-wise; Max is the max of both).
func (s *PhaseStat) Merge(o PhaseStat) {
	s.Count += o.Count
	s.TotalNS += o.TotalNS
	if o.MaxNS > s.MaxNS {
		s.MaxNS = o.MaxNS
	}
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// OverlapStats are the per-solve overlap totals, kept as running sums so the
// ledger ring can be bounded without losing the aggregate.
type OverlapStats struct {
	Posted         int   // non-blocking reductions completed
	Blocking       int   // blocking reductions recorded
	IntervalNS     int64 // Σ post→complete over non-blocking reductions
	WaitNS         int64 // Σ residual wait over non-blocking reductions
	BlockingWaitNS int64 // Σ wait over blocking reductions
	ComputeUnderNS int64 // Σ traced compute under posted reductions
}

// HiddenFraction is the solve-level hidden fraction: 1 − Σwait/Σinterval
// over the non-blocking reductions, clamped to [0, 1]. With no non-blocking
// reductions (a fully blocking method such as PCG) it is 0 by definition.
func (o OverlapStats) HiddenFraction() float64 {
	if o.IntervalNS <= 0 {
		return 0
	}
	h := 1 - float64(o.WaitNS)/float64(o.IntervalNS)
	if h < 0 {
		return 0
	}
	if h > 1 {
		return 1
	}
	return h
}

// Merge folds another rank's overlap totals into o.
func (o *OverlapStats) Merge(p OverlapStats) {
	o.Posted += p.Posted
	o.Blocking += p.Blocking
	o.IntervalNS += p.IntervalNS
	o.WaitNS += p.WaitNS
	o.BlockingWaitNS += p.BlockingWaitNS
	o.ComputeUnderNS += p.ComputeUnderNS
}

// Summary is a consistent snapshot of one tracer: per-phase statistics, the
// overlap totals, the bounded reduction ledger, and the timeline ring.
type Summary struct {
	Rank          int
	Phases        [NumPhases]PhaseStat
	Overlap       OverlapStats
	Reductions    []Reduction
	Events        []Event // oldest first
	DroppedEvents int64   // ring overwrites
	DroppedReds   int64   // ledger-ring overwrites
}

// HiddenFraction is shorthand for the overlap totals' solve-level metric.
func (s Summary) HiddenFraction() float64 { return s.Overlap.HiddenFraction() }

// MergeSummaries folds per-rank summaries into one aggregate: phase stats
// and overlap totals sum; events and the ledger are concatenated in rank
// order (the Chrome export keeps ranks apart by tid instead). Rank is taken
// from the first summary.
func MergeSummaries(sums []Summary) Summary {
	var out Summary
	if len(sums) == 0 {
		return out
	}
	out.Rank = sums[0].Rank
	for _, s := range sums {
		for p := range out.Phases {
			out.Phases[p].Merge(s.Phases[p])
		}
		out.Overlap.Merge(s.Overlap)
		out.Reductions = append(out.Reductions, s.Reductions...)
		out.Events = append(out.Events, s.Events...)
		out.DroppedEvents += s.DroppedEvents
		out.DroppedReds += s.DroppedReds
	}
	return out
}

// DefaultEventCapacity bounds the timeline ring of a tracer built by New.
// At 24 bytes per event this is ~400 KiB per rank; long solves overwrite
// the oldest events and count the drops, never reallocating.
const DefaultEventCapacity = 1 << 14

// DefaultLedgerCapacity bounds the per-reduction ledger ring. The overlap
// totals (OverlapStats) are running sums and survive any number of
// overwrites.
const DefaultLedgerCapacity = 4096

// Tracer records one rank's spans and reductions. All methods are safe on a
// nil receiver (no-ops), so instrumentation sites never branch on "is
// tracing enabled". A tracer is safe for concurrent use, but the intended
// discipline is single-writer (the rank's goroutine) with reads via
// Summary() after — or during — the solve.
type Tracer struct {
	rank  int
	clock func() int64

	mu        sync.Mutex
	phases    [NumPhases]PhaseStat
	computeNS int64 // cumulative non-waiting span time (the overlap clock)

	events      []Event // ring
	evNext      int
	evCount     int
	evDropped   int64
	reds        []Reduction // ring
	redNext     int
	redCount    int
	redDropped  int64
	overlap     OverlapStats
	pending     map[int]pendingReduction
	nextPending int
}

type pendingReduction struct {
	words         int
	postNS        int64
	computeAtPost int64
	waitStartNS   int64
	computeAtWait int64
	waiting       bool
}

// Option configures a Tracer at construction.
type Option func(*Tracer)

// WithClock replaces the monotonic wall clock with a custom nanosecond
// clock (the sim replay injects its virtual clock through the ingestion
// APIs instead, but tests use this).
func WithClock(clock func() int64) Option {
	return func(t *Tracer) { t.clock = clock }
}

// WithCapacity resizes the timeline and ledger rings.
func WithCapacity(events, ledger int) Option {
	return func(t *Tracer) {
		if events > 0 {
			t.events = make([]Event, 0, events)
		}
		if ledger > 0 {
			t.reds = make([]Reduction, 0, ledger)
		}
	}
}

// New returns a tracer for one rank with a monotonic wall clock anchored at
// construction time (timestamps are nanoseconds since New).
func New(rank int, opts ...Option) *Tracer {
	base := time.Now()
	t := &Tracer{
		rank:    rank,
		clock:   func() int64 { return time.Since(base).Nanoseconds() },
		events:  make([]Event, 0, DefaultEventCapacity),
		reds:    make([]Reduction, 0, DefaultLedgerCapacity),
		pending: map[int]pendingReduction{},
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Rank returns the tracer's rank id (0 for a nil tracer).
func (t *Tracer) Rank() int {
	if t == nil {
		return 0
	}
	return t.rank
}

// Now returns the tracer's clock reading (0 for a nil tracer).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// Begin opens a span of phase p. On a nil tracer the returned span is dead
// and End is free.
func (t *Tracer) Begin(p Phase) Span {
	if t == nil {
		return Span{}
	}
	return Span{phase: p, start: t.clock(), live: true}
}

// End completes a span: the event enters the timeline ring, the duration
// accumulates into the phase's statistics, and non-waiting phases advance
// the compute clock the overlap ledger reads.
func (t *Tracer) End(sp Span) {
	if t == nil || !sp.live {
		return
	}
	end := t.clock()
	t.mu.Lock()
	t.addSpanLocked(sp.phase, sp.start, end)
	t.mu.Unlock()
}

// AddSpanAt ingests a completed span with explicit timestamps — the path the
// sim replay uses to emit spans on its deterministic virtual clock.
func (t *Tracer) AddSpanAt(p Phase, startNS, endNS int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.addSpanLocked(p, startNS, endNS)
	t.mu.Unlock()
}

func (t *Tracer) addSpanLocked(p Phase, startNS, endNS int64) {
	if endNS < startNS {
		endNS = startNS
	}
	if p >= NumPhases {
		return
	}
	t.phases[p].add(endNS - startNS)
	if !p.waiting() {
		t.computeNS += endNS - startNS
	}
	t.pushEventLocked(Event{Phase: p, StartNS: startNS, EndNS: endNS})
}

func (t *Tracer) pushEventLocked(ev Event) {
	if cap(t.events) == 0 {
		return
	}
	if t.evCount < cap(t.events) {
		t.events = append(t.events, ev)
		t.evCount++
		return
	}
	t.events[t.evNext] = ev
	t.evNext = (t.evNext + 1) % cap(t.events)
	t.evDropped++
}

// Post opens an overlap-ledger entry for a non-blocking reduction of the
// given word count and returns its handle. The caller brackets the actual
// post call with a PhaseIallreducePost span separately; the ledger's post
// timestamp is taken here.
func (t *Tracer) Post(words int) int {
	if t == nil {
		return 0
	}
	now := t.clock()
	t.mu.Lock()
	t.nextPending++
	h := t.nextPending
	t.pending[h] = pendingReduction{words: words, postNS: now, computeAtPost: t.computeNS}
	t.mu.Unlock()
	return h
}

// BeginWait marks the start of the residual wait on handle h.
func (t *Tracer) BeginWait(h int) {
	if t == nil {
		return
	}
	now := t.clock()
	t.mu.Lock()
	if pd, ok := t.pending[h]; ok && !pd.waiting {
		pd.waiting = true
		pd.waitStartNS = now
		pd.computeAtWait = t.computeNS
		t.pending[h] = pd
	}
	t.mu.Unlock()
}

// EndWait completes handle h: the residual wait becomes a PhaseAllreduceWait
// span, and the ledger gains the reduction's measured record.
func (t *Tracer) EndWait(h int) {
	if t == nil {
		return
	}
	now := t.clock()
	t.mu.Lock()
	pd, ok := t.pending[h]
	if !ok {
		t.mu.Unlock()
		return
	}
	delete(t.pending, h)
	if !pd.waiting { // EndWait without BeginWait: treat the wait as empty
		pd.waitStartNS, pd.computeAtWait = now, t.computeNS
	}
	t.addSpanLocked(PhaseAllreduceWait, pd.waitStartNS, now)
	t.recordReductionLocked(Reduction{
		Words:          pd.words,
		PostNS:         pd.postNS,
		WaitStartNS:    pd.waitStartNS,
		DoneNS:         now,
		ComputeUnderNS: pd.computeAtWait - pd.computeAtPost,
	})
	t.mu.Unlock()
}

// AbortWait drops handle h without recording a ledger entry — the deadline
// path, where the reduction never completed and its timings would be lies.
func (t *Tracer) AbortWait(h int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	delete(t.pending, h)
	t.mu.Unlock()
}

// EndBlocking completes a blocking-allreduce span sp (opened with
// Begin(PhaseAllreduceWait)) and records the ledger entry with
// post == waitStart: a blocking reduction hides nothing by construction.
func (t *Tracer) EndBlocking(sp Span, words int) {
	if t == nil || !sp.live {
		return
	}
	now := t.clock()
	t.mu.Lock()
	t.addSpanLocked(PhaseAllreduceWait, sp.start, now)
	t.recordReductionLocked(Reduction{
		Words: words, Blocking: true,
		PostNS: sp.start, WaitStartNS: sp.start, DoneNS: now,
	})
	t.mu.Unlock()
}

// AddReductionAt ingests a complete ledger entry with explicit timestamps —
// the sim replay's path. The matching allreduce_wait span must be added
// separately (the replay owns the virtual clock).
func (t *Tracer) AddReductionAt(r Reduction) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.recordReductionLocked(r)
	t.mu.Unlock()
}

func (t *Tracer) recordReductionLocked(r Reduction) {
	if r.Blocking {
		t.overlap.Blocking++
		t.overlap.BlockingWaitNS += r.WaitNS()
	} else {
		t.overlap.Posted++
		t.overlap.IntervalNS += r.IntervalNS()
		t.overlap.WaitNS += r.WaitNS()
		t.overlap.ComputeUnderNS += r.ComputeUnderNS
	}
	if cap(t.reds) == 0 {
		return
	}
	if t.redCount < cap(t.reds) {
		t.reds = append(t.reds, r)
		t.redCount++
		return
	}
	t.reds[t.redNext] = r
	t.redNext = (t.redNext + 1) % cap(t.reds)
	t.redDropped++
}

// Summary returns a consistent snapshot. Events and reductions are copied
// oldest-first; the tracer keeps recording.
func (t *Tracer) Summary() Summary {
	if t == nil {
		return Summary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Summary{
		Rank:          t.rank,
		Phases:        t.phases,
		Overlap:       t.overlap,
		DroppedEvents: t.evDropped,
		DroppedReds:   t.redDropped,
	}
	s.Events = unring(t.events, t.evNext, t.evCount)
	s.Reductions = unring(t.reds, t.redNext, t.redCount)
	return s
}

// unring copies a ring's live entries oldest-first.
func unring[T any](ring []T, next, count int) []T {
	out := make([]T, 0, count)
	if count < cap(ring) {
		return append(out, ring[:count]...)
	}
	out = append(out, ring[next:]...)
	return append(out, ring[:next]...)
}
