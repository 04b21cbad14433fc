package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SolveRequest is a job submission. Zero fields take solver defaults: method
// "ladder" (the PR-2 resilience ladder — degrade, don't fail), PC "jacobi",
// s=3, the problem's paper tolerance, MaxIter 100000, one rank (the
// sequential engine; Ranks > 1 runs the goroutine-rank comm runtime
// in-process on the entry's cached partition).
type SolveRequest struct {
	ProblemSpec
	Method    string  `json:"method,omitempty"`
	PC        string  `json:"pc,omitempty"`
	S         int     `json:"s,omitempty"`
	RelTol    float64 `json:"rtol,omitempty"`
	MaxIter   int     `json:"maxiter,omitempty"`
	Ranks     int     `json:"ranks,omitempty"`
	TimeoutMS int     `json:"timeout_ms,omitempty"`
	// ReplaceEvery sets the residual-replacement cadence for the methods that
	// honor it (pipe-m-cg-rr, pipe-pr-cg, pipecg): every ReplaceEvery
	// iterations the recurrence residual is recomputed from the true residual.
	// Zero means the method's own default. Ignored for method "auto", where
	// the tuner owns the cadence.
	ReplaceEvery int `json:"replace_every,omitempty"`
	// IncludeX asks for the full solution vector in the result event.
	// encoding/json round-trips float64 exactly, so the received iterate is
	// bit-identical to the solver's.
	IncludeX bool `json:"include_x,omitempty"`
	// JobKey is a client-supplied idempotency key. Submitting a second job
	// with the key of a retained job attaches to that job instead of running
	// a new solve — the dedup that makes retry-after-failure safe: a cluster
	// router (cmd/solverouter) that lost a shard's response mid-flight can
	// resubmit without risking a double solve, and a resubmission that lands
	// on the shard that already accepted the first attempt simply returns it.
	// Keys are forgotten when their job leaves retention (Config.RetainJobs).
	JobKey string `json:"job_key,omitempty"`
	// RHSSeed, when non-zero, replaces the problem's canonical right-hand
	// side with a deterministic synthetic one drawn from a splitmix64 stream
	// seeded here (uniform in [-1,1), in the operator's row ordering). Two
	// jobs with the same seed solve the same system — on any daemon, batched
	// or solo — so clients can issue many distinct solves against one
	// operator and still compare iterates bitwise across paths.
	RHSSeed uint64 `json:"rhs_seed,omitempty"`
	// TraceParent carries the W3C traceparent of the submitting span, making
	// this job a child span of the client's trace. The router rewrites it per
	// delivery attempt so each attempt is its own child span; a traceparent
	// request header is an equivalent spelling (the body field wins when both
	// are present). Absent or malformed, the daemon originates a fresh trace.
	// Purely observational — never part of coalesce or idempotency keys, and
	// bit-neutral to the solve.
	TraceParent string `json:"traceparent,omitempty"`
}

func (r SolveRequest) withDefaults() SolveRequest {
	if r.Method == "" {
		r.Method = "ladder"
	}
	if r.PC == "" {
		r.PC = "jacobi"
	}
	if r.S <= 0 {
		r.S = 3
	}
	if r.MaxIter <= 0 {
		r.MaxIter = 100000
	}
	if r.Ranks <= 0 {
		r.Ranks = 1
	}
	return r
}

// Request limits: a submission past any of them is refused before the
// registry builds anything. A grid problem's operator is assembled in memory
// in proportion to its rows (a poisson125 request with n=1000 asks for about
// 1.2·10¹¹ stored entries), so its rows are bounded; s and ranks size the
// solver's basis and the in-process rank goroutines; maxiter bounds how long
// one job may hold a worker; timeout_ms must fit a time.Duration.
const (
	// MaxGridRows bounds a grid problem's unknowns: n ≤ 256 for the 3D
	// problems (poisson125, poisson7), n ≤ 4096 for poisson5.
	MaxGridRows = 1 << 24
	// MaxS bounds the s-step depth s ∈ [1, MaxS].
	MaxS = 16
	// MaxRanks bounds the rank count ranks ∈ [1, MaxRanks].
	MaxRanks = 64
	// MaxIterLimit bounds the iteration cap maxiter ≤ MaxIterLimit (the
	// default is 100000).
	MaxIterLimit = 1_000_000
	// MaxTimeoutMS bounds timeout_ms by the largest whole-millisecond
	// time.Duration (about 292 years), so the budget never wraps negative.
	MaxTimeoutMS = math.MaxInt64 / 1_000_000
)

// ErrInvalidRequest marks a submission refused by validate; the HTTP layer
// answers it with 400.
var ErrInvalidRequest = errors.New("serve: invalid request")

// gridDims is the dimension of each grid problem's n×…×n grid.
var gridDims = map[string]int{"poisson125": 3, "poisson7": 3, "poisson5": 2}

// validate checks a request, after withDefaults, against the request limits,
// naming the limit it breaks, and refuses a method or preconditioner name
// the solver does not know ("auto" and "ladder" included in the known).
func (r SolveRequest) validate() error {
	if d := gridDims[r.Problem]; d > 0 {
		n, rows := r.normalized().N, 1
		for range d {
			if rows > MaxGridRows/n {
				return fmt.Errorf("%w: %s n=%d has more than MaxGridRows=%d rows",
					ErrInvalidRequest, r.Problem, n, MaxGridRows)
			}
			rows *= n
		}
	}
	if r.S < 1 || r.S > MaxS {
		return fmt.Errorf("%w: s=%d outside [1, MaxS=%d]", ErrInvalidRequest, r.S, MaxS)
	}
	if r.Ranks < 1 || r.Ranks > MaxRanks {
		return fmt.Errorf("%w: ranks=%d outside [1, MaxRanks=%d]", ErrInvalidRequest, r.Ranks, MaxRanks)
	}
	if r.MaxIter > MaxIterLimit {
		return fmt.Errorf("%w: maxiter=%d above MaxIterLimit=%d", ErrInvalidRequest, r.MaxIter, MaxIterLimit)
	}
	if int64(r.TimeoutMS) > MaxTimeoutMS {
		return fmt.Errorf("%w: timeout_ms=%d above MaxTimeoutMS=%d", ErrInvalidRequest, r.TimeoutMS, MaxTimeoutMS)
	}
	if r.Method != MethodAuto {
		if _, err := krylov.MethodByName(r.Method); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidRequest, err)
		}
	}
	if err := workload.CheckPC(r.PC); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	return nil
}

// JobState is a job's lifecycle phase. Terminal states are JobConverged,
// JobFailed and JobCanceled; every accepted job reaches exactly one of them.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobConverged JobState = "converged"
	JobFailed    JobState = "failed"
	JobCanceled  JobState = "canceled"
)

// Event is one NDJSON line of a job's progress stream.
type Event struct {
	Type string `json:"type"` // queued | start | progress | result
	Job  string `json:"job"`
	// TraceID is the distributed trace this job belongs to; emit stamps it
	// on every event so a relayed NDJSON stream stays attributable across
	// router failover.
	TraceID string `json:"trace_id,omitempty"`

	// progress fields
	Iteration int `json:"iteration,omitempty"`
	// RelRes carries the residual norm of the check. A solver can record a
	// non-finite norm (NaN/Inf) right before its divergence guard stops the
	// run; encoding/json rejects non-finite floats, so the event boundary
	// sanitizes them: RelRes is omitted and Diverged is set instead (see
	// saneRel). The event is delivered either way — pre-audit, the encoder
	// error silently dropped it and tore the NDJSON stream down mid-solve.
	RelRes      float64 `json:"relres,omitempty"`
	ReduceIndex int     `json:"reduce_index,omitempty"`
	// Diverged marks a residual whose norm was non-finite at this check (or
	// a result whose final residual was): the recurrence exploded and the
	// divergence guard is about to stop (or has stopped) the run.
	Diverged bool `json:"diverged,omitempty"`
	// Recoveries mirrors trace.Counters.RecoveryEvents() at the time of the
	// check — a step in this series marks a recovery event.
	Recoveries int `json:"recoveries,omitempty"`

	// result fields
	State      JobState  `json:"state,omitempty"`
	Method     string    `json:"method,omitempty"`
	Converged  bool      `json:"converged,omitempty"`
	Iterations int       `json:"iterations,omitempty"`
	Error      string    `json:"error,omitempty"`
	XHash      string    `json:"x_hash,omitempty"`
	X          []float64 `json:"x,omitempty"`
	// OverlapEfficiency is the measured hidden fraction over the job's
	// non-blocking reductions (1 - wait/interval, from the overlap ledger).
	// Present on the result event when the solve posted at least one
	// non-blocking reduction; a purely blocking method reports nothing to
	// hide and the field is omitted.
	OverlapEfficiency float64 `json:"overlap_efficiency,omitempty"`
	// BatchWidth is the number of jobs this job's solve was coalesced with
	// (itself included) when the manager ran it as part of a block solve.
	// Present on start and result events; 1 (omitted) for a solo solve.
	BatchWidth int `json:"batch_width,omitempty"`
	// TunedMethod is the concrete method the stability tuner selected for a
	// job submitted with method "auto"; Method stays "auto" on such jobs so a
	// client can tell delegated selection from an explicit request.
	TunedMethod string `json:"tuned_method,omitempty"`
	// TunerWarmStart marks an auto job whose configuration came from a
	// recorded fingerprint rather than the cold-start default.
	TunerWarmStart bool `json:"tuner_warm_start,omitempty"`
	// DriftRatio is the max true/recurrence residual ratio the out-of-band
	// drift probe measured during an auto job's solve (omitted when the job
	// ran without a probe, e.g. on the multi-rank path).
	DriftRatio float64 `json:"drift_ratio,omitempty"`
}

// maxRetainedEvents bounds the per-job event ring replayed to late
// subscribers; live subscribers see every event their channel keeps up with.
const maxRetainedEvents = 1024

// Job is one accepted solve.
type Job struct {
	ID  string       `json:"id"`
	Req SolveRequest `json:"request"`

	mu         sync.Mutex
	state      JobState
	events     []Event // ring of the most recent events
	subs       map[chan Event]struct{}
	res        *krylov.Result // without X unless Req.IncludeX
	xHash      string         // XHash of the iterate, computed once at finish
	err        error
	counters   trace.Counters
	obsSum     obs.Summary // merged trace summary across the job's ranks
	batchWidth int         // coalesced solve width (1 = solo)

	// Distributed-trace state. tctx is assigned once in Submit before the
	// job is enqueued and immutable after, so it is readable without mu.
	tctx       obs.TraceContext // this job's span in its trace
	parentSpan string           // incoming parent span id (hex), "" for daemon-originated traces
	runStart   time.Time        // worker picked the job up (queue-wait span end)
	coalesceAt time.Time        // head job's coalesce-window wait start (zero if none)
	coalesceNS int64            // head job's coalesce-window wait duration

	ctx       context.Context
	cancel    context.CancelFunc
	submitted time.Time
	done      chan struct{}
}

// TraceID returns the hex trace ID of the job's distributed trace.
func (j *Job) TraceID() string {
	if !j.tctx.Valid() {
		return ""
	}
	return j.tctx.TraceID.String()
}

// State returns the job's current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the solver result and error once the job is done. The
// result carries the iterate X only when the submission set include_x;
// XHash identifies it either way.
func (j *Job) Result() (*krylov.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res, j.err
}

// XHash returns the bit-fingerprint of the job's iterate ("" while running,
// or when the solve produced none).
func (j *Job) XHash() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.xHash
}

// Counters returns the job's kernel counters (complete once done).
func (j *Job) Counters() trace.Counters {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.counters
}

// BatchWidth returns how many jobs this job's solve shared its engine with
// (itself included); 1 for a solo solve, 0 while still queued.
func (j *Job) BatchWidth() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.batchWidth
}

// TraceSummary returns the job's merged phase/overlap trace summary across
// all ranks (complete once done).
func (j *Job) TraceSummary() obs.Summary {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.obsSum
}

// Cancel asks a queued or running job to stop; it ends in JobCanceled.
func (j *Job) Cancel() { j.cancel() }

// emit records ev in the ring and fans it out to subscribers without
// blocking: a subscriber that falls behind loses progress events, never the
// terminal result (Subscribe replays the ring, and the result is always
// retained as the final ring entry).
func (j *Job) emit(ev Event) {
	j.mu.Lock()
	ev = j.retainLocked(ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// retainLocked stamps ev with the job's trace ID and appends it to the
// bounded event ring, evicting the oldest entry when full. Caller holds mu.
func (j *Job) retainLocked(ev Event) Event {
	ev.TraceID = j.TraceID()
	if len(j.events) >= maxRetainedEvents {
		copy(j.events, j.events[1:])
		j.events = j.events[:len(j.events)-1]
	}
	j.events = append(j.events, ev)
	return ev
}

// Subscribe returns a channel that first replays the retained events and
// then delivers live ones; call the returned cancel to unsubscribe. The
// channel is closed after the terminal result event is delivered.
func (j *Job) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, maxRetainedEvents+64)
	j.mu.Lock()
	for _, ev := range j.events {
		ch <- ev // buffered at ring capacity: cannot block
	}
	terminal := j.state == JobConverged || j.state == JobFailed || j.state == JobCanceled
	if terminal {
		j.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	if j.subs == nil {
		j.subs = map[chan Event]struct{}{}
	}
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	cancel := func() {
		j.mu.Lock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
		j.mu.Unlock()
	}
	return ch, cancel
}

// finish moves the job to its terminal state, emits the result event and
// closes every subscriber.
func (j *Job) finish(state JobState, ev Event) {
	j.mu.Lock()
	j.state = state
	ev = j.retainLocked(ev)
	subs := j.subs
	j.subs = nil
	j.mu.Unlock()
	for ch := range subs {
		// The result must arrive even on a full channel; the buffer is
		// sized past the ring, so this cannot block a well-formed
		// subscriber, and a torn-down one is drained by its canceler.
		select {
		case ch <- ev:
		default:
		}
		close(ch)
	}
	close(j.done)
}

// Submission errors, mapped by the HTTP plane to 429 and 503.
var (
	ErrQueueFull = errors.New("serve: submission queue full")
	ErrDraining  = errors.New("serve: draining, not accepting jobs")
)

// Manager owns the bounded submission queue and the solve worker pool.
//
// The queue is an explicit slice under its own mutex+cond rather than a
// channel: a worker taking work inspects the whole backlog, not just the
// head, so it can steal every pending job that coalesces with the one it
// popped (same operator, method, PC, s and tolerance) and run them as one
// block solve. Lock order where locks nest: drainMu > mu > qmu.
type Manager struct {
	cfg    Config
	reg    *Registry
	met    *Metrics
	tuner  *Tuner
	ids    *obs.IDGen          // trace/span ID generator (seeded; deterministic in tests)
	flight *obs.FlightRecorder // ring of recent completed job traces + events

	qmu      sync.Mutex
	qcond    *sync.Cond
	pending  []*Job // FIFO backlog awaiting a worker
	quitting bool   // workers exit once the backlog is empty

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string          // submission order, for listing and retention
	byKey  map[string]string // idempotency JobKey → job ID, within retention
	nextID int

	inflight  sync.WaitGroup // queued + running jobs
	workersWG sync.WaitGroup
	running   chan struct{} // semaphore-as-gauge: len == busy workers

	drainMu  sync.Mutex
	draining bool
}

// NewManager starts the worker pool.
func NewManager(cfg Config, reg *Registry, met *Metrics) *Manager {
	seed := cfg.TraceSeed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	m := &Manager{
		cfg:     cfg,
		reg:     reg,
		met:     met,
		tuner:   NewTuner(met),
		ids:     obs.NewIDGen(seed),
		flight:  obs.NewFlightRecorder("solverd", cfg.ShardID, cfg.FlightJobs, cfg.FlightEvents),
		jobs:    map[string]*Job{},
		byKey:   map[string]string{},
		running: make(chan struct{}, cfg.Workers),
	}
	m.qcond = sync.NewCond(&m.qmu)
	m.workersWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m
}

// QueueDepth returns the number of jobs waiting for a worker.
func (m *Manager) QueueDepth() int {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	return len(m.pending)
}

// InFlight returns the number of jobs currently executing.
func (m *Manager) InFlight() int { return len(m.running) }

// Workers returns the worker-pool size.
func (m *Manager) Workers() int { return m.cfg.Workers }

// Tuner returns the stability auto-selector backing method "auto".
func (m *Manager) Tuner() *Tuner { return m.tuner }

// Flight returns the manager's flight recorder (never nil).
func (m *Manager) Flight() *obs.FlightRecorder { return m.flight }

// Draining reports whether admissions are closed.
func (m *Manager) Draining() bool {
	m.drainMu.Lock()
	defer m.drainMu.Unlock()
	return m.draining
}

// Submit applies admission control and enqueues the job: ErrDraining during
// shutdown, ErrQueueFull when the bounded queue has no room (the HTTP plane
// maps these to 503 and 429 + Retry-After). A request carrying the JobKey of
// a retained job is deduplicated: the existing job is returned (nil error)
// and no new solve runs.
//
// Admission, rejection accounting, dedup and registration are ONE critical
// section against drain start. Two real races hid in the seams of the old
// multi-lock version:
//
//   - A job could be enqueued (visible to a worker) before it was registered
//     in m.jobs. Drain's deadline sweep cancels via List(), so a job admitted
//     in that window was invisible to the sweep and ran to natural completion
//     — drain overran its budget, and under a supervisor that enforces the
//     budget with SIGKILL the final metrics flush never happened.
//   - The rejected/drained counters were incremented after the critical
//     section, so a rejection that raced drain start could land after the
//     final flush and vanish from it.
//
// Now a submission either completes entirely before Drain observes
// `draining`, or observes it and is rejected — in both cases with its
// side effects (registration, counters) already visible.
func (m *Manager) Submit(req SolveRequest) (*Job, error) {
	// AutoTuneDefault changes the empty-method default from the resilience
	// ladder to the stability tuner; an explicit method always wins. Resolved
	// before withDefaults so the latter's "ladder" fallback never fires.
	if req.Method == "" && m.cfg.AutoTuneDefault {
		req.Method = MethodAuto
	}
	req = req.withDefaults()
	if err := req.validate(); err != nil {
		return nil, err
	}

	m.drainMu.Lock()
	if m.draining {
		m.met.jobsDrained.Add(1)
		m.drainMu.Unlock()
		return nil, ErrDraining
	}
	m.mu.Lock()
	if req.JobKey != "" {
		if id, ok := m.byKey[req.JobKey]; ok {
			if dup := m.jobs[id]; dup != nil {
				m.met.jobsDeduped.Add(1)
				m.mu.Unlock()
				m.drainMu.Unlock()
				return dup, nil
			}
			delete(m.byKey, req.JobKey) // job fell out of retention
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		Req:       req,
		state:     JobQueued,
		ctx:       ctx,
		cancel:    cancel,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	// Join the client's trace (the job becomes a child span) or originate a
	// fresh one. Assigned before the job is enqueued: a fast worker may
	// start solving before Submit returns.
	if parent, ok := obs.ParseTraceparent(req.TraceParent); ok {
		j.tctx = m.ids.Child(parent)
		j.parentSpan = parent.SpanID.String()
	} else {
		j.tctx = m.ids.NewTrace()
	}
	m.nextID++
	if m.cfg.ShardID != "" {
		j.ID = fmt.Sprintf("%s-job-%d", m.cfg.ShardID, m.nextID)
	} else {
		j.ID = fmt.Sprintf("job-%d", m.nextID)
	}
	m.inflight.Add(1)
	m.qmu.Lock()
	if len(m.pending) >= m.cfg.QueueDepth {
		m.qmu.Unlock()
		m.inflight.Done()
		m.met.jobsRejected.Add(1)
		m.mu.Unlock()
		m.drainMu.Unlock()
		cancel()
		return nil, ErrQueueFull
	}
	m.pending = append(m.pending, j)
	m.qcond.Signal()
	m.qmu.Unlock()
	// The queued event is recorded before the job becomes findable — no
	// subscriber exists yet, so it cannot interleave after a fast worker's
	// start/result events in anyone's stream.
	j.emit(Event{Type: "queued", Job: j.ID, State: JobQueued})
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	if req.JobKey != "" {
		m.byKey[req.JobKey] = j.ID
	}
	m.trimLocked()
	m.mu.Unlock()
	m.drainMu.Unlock()
	return j, nil
}

// trim drops the oldest finished jobs beyond the retention bound. It runs on
// every submission AND every job completion: trimLocked stops at a live
// oldest job (never forget running work), so a backlog that finishes after
// the last submission — every drain, every Kill — would otherwise retain
// jobs and their idempotency keys past the bound forever.
func (m *Manager) trim() {
	m.mu.Lock()
	m.trimLocked()
	m.mu.Unlock()
}

// trimLocked drops the oldest finished jobs beyond the retention bound,
// together with their idempotency keys.
func (m *Manager) trimLocked() {
	for len(m.order) > m.cfg.RetainJobs {
		id := m.order[0]
		j := m.jobs[id]
		if j != nil {
			if st := j.State(); st == JobQueued || st == JobRunning {
				return // never forget a live job
			}
			if k := j.Req.JobKey; k != "" && m.byKey[k] == id {
				delete(m.byKey, k)
			}
			delete(m.jobs, id)
		}
		m.order = m.order[1:]
	}
}

// Get returns a job by id.
func (m *Manager) Get(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// List returns retained jobs in submission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		if j := m.jobs[id]; j != nil {
			out = append(out, j)
		}
	}
	return out
}

// coalescible reports whether a request may join a block solve: coalescing
// runs on the sequential engine, so only single-rank jobs qualify. Auto jobs
// never coalesce: the tuner resolves each one against the fingerprint record
// at run time, so two queued auto jobs are not guaranteed to run the same
// method — the one property a shared block solve cannot survive.
func coalescible(r SolveRequest) bool { return r.Ranks <= 1 && r.Method != MethodAuto }

// coalesceKey groups requests that can share one block solve: same operator,
// method, preconditioner, s, tolerance, iteration budget and replacement
// cadence (a gang shares one solver loop, so a per-column cadence cannot be
// honored). RHSSeed is deliberately excluded — distinct right-hand sides are
// exactly what a block solve batches — as are TimeoutMS (deadlines stay per
// job through each column's progress hook) and IncludeX/JobKey (response
// shaping).
func coalesceKey(r SolveRequest) string {
	return fmt.Sprintf("%s|%s|%s|%d|%g|%d|%d",
		r.ProblemSpec.Key(), r.Method, r.PC, r.S, r.RelTol, r.MaxIter, r.ReplaceEvery)
}

// stealLocked moves every pending job that coalesces with key into batch, in
// FIFO order, up to the configured width. Caller holds qmu.
func (m *Manager) stealLocked(batch []*Job, key string) []*Job {
	kept := m.pending[:0]
	for _, j := range m.pending {
		if len(batch) < m.cfg.CoalesceWidth && coalescible(j.Req) && coalesceKey(j.Req) == key {
			batch = append(batch, j)
		} else {
			kept = append(kept, j)
		}
	}
	for i := len(kept); i < len(m.pending); i++ {
		m.pending[i] = nil // drop stolen jobs' pointers from the backlog array
	}
	m.pending = kept
	return batch
}

// takeBatch blocks until work or shutdown: it pops the backlog head and,
// when coalescing is on, steals every compatible pending job (optionally
// waiting one CoalesceWindow for stragglers when the batch is not yet full).
// Returns nil when the manager is quitting and the backlog is empty.
func (m *Manager) takeBatch() []*Job {
	m.qmu.Lock()
	for len(m.pending) == 0 && !m.quitting {
		m.qcond.Wait()
	}
	if len(m.pending) == 0 {
		m.qmu.Unlock()
		return nil
	}
	head := m.pending[0]
	m.pending[0] = nil
	m.pending = m.pending[1:]
	batch := []*Job{head}
	if m.cfg.CoalesceWidth > 1 && coalescible(head.Req) {
		key := coalesceKey(head.Req)
		batch = m.stealLocked(batch, key)
		if len(batch) < m.cfg.CoalesceWidth && m.cfg.CoalesceWindow > 0 {
			// Half-open window: wait once for stragglers, then go with what
			// arrived. Bounded, so a lone job's latency cost is one window.
			// The head job paid the wait; stamp it so its trace grows a
			// coalesce_wait span.
			m.qmu.Unlock()
			waitStart := time.Now()
			time.Sleep(m.cfg.CoalesceWindow)
			head.mu.Lock()
			head.coalesceAt = waitStart
			head.coalesceNS = time.Since(waitStart).Nanoseconds()
			head.mu.Unlock()
			m.qmu.Lock()
			batch = m.stealLocked(batch, key)
		}
	}
	m.qmu.Unlock()
	return batch
}

func (m *Manager) worker() {
	defer m.workersWG.Done()
	for {
		batch := m.takeBatch()
		if batch == nil {
			return
		}
		m.running <- struct{}{}
		if m.cfg.testHookBeforeRun != nil {
			for _, j := range batch {
				m.cfg.testHookBeforeRun(j)
			}
		}
		m.run(batch)
		<-m.running
		for range batch {
			m.inflight.Done()
		}
	}
}

// Drain closes admissions, waits for queued and running jobs to finish until
// ctx expires, then cancels the stragglers and waits for them to unwind, and
// finally stops the workers. Idempotent.
func (m *Manager) Drain(ctx context.Context) {
	m.drainMu.Lock()
	if m.draining {
		m.drainMu.Unlock()
		m.workersWG.Wait()
		return
	}
	m.draining = true
	m.drainMu.Unlock()

	finished := make(chan struct{})
	go func() { m.inflight.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-ctx.Done():
		// Deadline: cancel everything still alive. Cancellation reaches the
		// solver at its next convergence check, whose progress hook unwinds
		// it with an engine.Abort; the peers of a ranks>1 job's unwound rank
		// 0 wake on the fabric at once. Wait for them all.
		for _, j := range m.List() {
			if st := j.State(); st == JobQueued || st == JobRunning {
				j.Cancel()
			}
		}
		<-finished
	}
	m.qmu.Lock()
	m.quitting = true
	m.qcond.Broadcast()
	m.qmu.Unlock()
	m.workersWG.Wait()
}
