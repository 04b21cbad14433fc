package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/trace"
)

// latencyBuckets are the request-latency histogram bounds in seconds
// (cumulative, Prometheus convention; +Inf is implicit).
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// histogram is a fixed-bucket latency histogram in Prometheus semantics.
type histogram struct {
	mu     sync.Mutex
	counts []int64 // one per bucket, non-cumulative; +Inf is counts[len]
	sum    float64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]int64, len(latencyBuckets)+1)}
}

func (h *histogram) Observe(seconds float64) {
	i := sort.SearchFloat64s(latencyBuckets, seconds)
	h.mu.Lock()
	h.counts[i]++
	h.sum += seconds
	h.mu.Unlock()
}

// write emits the histogram's series under the writer's current family.
func (h *histogram) write(p *obs.PromWriter) {
	h.mu.Lock()
	counts := append([]int64(nil), h.counts...)
	sum := h.sum
	h.mu.Unlock()
	p.Histogram("", latencyBuckets, counts, sum)
}

// Metrics is the service-level ledger the /metrics plane serves. Job
// outcomes, admission rejections and cache traffic are atomics; the kernel
// aggregate merges each finished job's trace.Counters via Counters.Add.
type Metrics struct {
	jobsConverged atomic.Int64
	jobsFailed    atomic.Int64
	jobsCanceled  atomic.Int64
	jobsRejected  atomic.Int64 // queue-full 429s
	jobsDrained   atomic.Int64 // 503s during drain
	jobsDeduped   atomic.Int64 // submissions attached to a retained job by idempotency key

	jobsCoalesced atomic.Int64 // jobs run inside a width>1 block solve
	jobsSolo      atomic.Int64 // jobs run as width-1 solves
	batchWidth    atomic.Int64 // width of the most recent batch (gauge)

	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheEvictions atomic.Int64

	fabricLeaks atomic.Int64 // comm-mode jobs whose fabric closed dirty (cancellation)

	tunerRecords    atomic.Int64 // auto-job outcomes folded into fingerprint records
	tunerWarmstarts atomic.Int64 // auto jobs resolved from a recorded fingerprint
	tunerSwitches   atomic.Int64 // records written by a stability/efficiency switch

	latency *histogram

	mu      sync.Mutex
	kernels trace.Counters // aggregate over finished jobs

	obsMu   sync.Mutex
	phases  [obs.NumPhases]obs.PhaseStat // per-phase duration aggregate
	overlap obs.OverlapStats             // overlap-ledger aggregate

	skewMu     sync.Mutex
	skewLast   obs.SkewReport // most recent multi-rank solve's analysis
	skewSolves int64          // multi-rank solves analyzed
}

// NewMetrics builds an empty ledger.
func NewMetrics() *Metrics { return &Metrics{latency: newHistogram()} }

// AddCounters folds one finished job's kernel counters into the aggregate.
func (m *Metrics) AddCounters(c *trace.Counters) {
	m.mu.Lock()
	m.kernels.Add(c)
	m.mu.Unlock()
}

// AddObs folds one finished job's merged trace summary into the service-wide
// phase-duration histograms and overlap ledger.
func (m *Metrics) AddObs(s obs.Summary) {
	m.obsMu.Lock()
	for p := range m.phases {
		m.phases[p].Merge(s.Phases[p])
	}
	m.overlap.Merge(s.Overlap)
	m.obsMu.Unlock()
}

// ObserveLatency records one job's end-to-end latency (submit to finish).
func (m *Metrics) ObserveLatency(seconds float64) { m.latency.Observe(seconds) }

// noteBatch records one solve execution of the given width: the width gauge
// tracks the most recent batch, and every member job is tallied as coalesced
// (width > 1) or solo.
func (m *Metrics) noteBatch(width int) {
	m.batchWidth.Store(int64(width))
	if width > 1 {
		m.jobsCoalesced.Add(int64(width))
	} else {
		m.jobsSolo.Add(1)
	}
}

// noteSkew records a multi-rank solve's per-rank skew analysis; the gauges
// track the most recent analyzed solve. Reports without a straggler (solo
// solves) are ignored.
func (m *Metrics) noteSkew(rep obs.SkewReport) {
	if rep.StragglerRank < 0 {
		return
	}
	m.skewMu.Lock()
	m.skewLast = rep
	m.skewSolves++
	m.skewMu.Unlock()
}

// countJob tallies a finished job's outcome.
func (m *Metrics) countJob(state JobState) {
	switch state {
	case JobConverged:
		m.jobsConverged.Add(1)
	case JobCanceled:
		m.jobsCanceled.Add(1)
	default:
		m.jobsFailed.Add(1)
	}
}

// WritePrometheus renders the full scrape: service gauges (queue depth,
// in-flight, registry size read live from mgr and reg), job outcome totals,
// cache traffic, the latency histogram, and the kernel-counter aggregate in
// trace's stable serialization.
func (m *Metrics) WritePrometheus(w io.Writer, mgr *Manager, reg *Registry) {
	p := obs.NewPromWriter(w)
	if id := mgr.cfg.ShardID; id != "" {
		p.Family("solverd_shard_info", "gauge", "Shard identity of this daemon inside a cluster.").Int(fmt.Sprintf("shard=%q", id), 1)
	}
	p.Family("solverd_queue_depth", "gauge", "Jobs waiting for a worker.").Int("", int64(mgr.QueueDepth()))
	p.Family("solverd_inflight_jobs", "gauge", "").Int("", int64(mgr.InFlight()))
	p.Family("solverd_workers", "gauge", "").Int("", int64(mgr.Workers()))
	p.Family("solverd_draining", "gauge", "").Int("", obs.PromBool(mgr.Draining()))
	p.Family("solverd_registry_entries", "gauge", "").Int("", int64(reg.Len()))
	var resident int64
	for _, e := range reg.Summaries() {
		resident += int64(e.Bytes)
	}
	p.Family("solverd_registry_bytes", "gauge", "Bytes the resident entries' systems hold: CSR row pointers, columns and values, plus the right-hand side.").Int("", resident)

	p.Family("solverd_jobs_total", "counter", "")
	p.Int(`outcome="converged"`, m.jobsConverged.Load())
	p.Int(`outcome="failed"`, m.jobsFailed.Load())
	p.Int(`outcome="canceled"`, m.jobsCanceled.Load())
	p.Int(`outcome="rejected"`, m.jobsRejected.Load())
	p.Int(`outcome="drained"`, m.jobsDrained.Load())

	p.Family("solverd_batch_width", "gauge", "Width of the most recently executed solve batch (1 = solo).").Int("", m.batchWidth.Load())
	p.Family("solverd_jobs_batched_total", "counter", "Jobs executed, by whether their solve was coalesced into a width>1 block solve.")
	p.Int(`mode="coalesced"`, m.jobsCoalesced.Load())
	p.Int(`mode="solo"`, m.jobsSolo.Load())

	p.Family("solverd_jobs_deduped_total", "counter", "Submissions attached to a retained job via their idempotency key.").Int("", m.jobsDeduped.Load())

	p.Family("solverd_registry_hits_total", "counter", "").Int("", m.cacheHits.Load())
	p.Family("solverd_registry_misses_total", "counter", "").Int("", m.cacheMisses.Load())
	p.Family("solverd_registry_evictions_total", "counter", "").Int("", m.cacheEvictions.Load())
	p.Family("solverd_fabric_leaks_total", "counter", "Multi-rank jobs whose fabric closed with undelivered messages (cancellation).").Int("", m.fabricLeaks.Load())

	p.Family("solverd_tuner_events_total", "counter", "Stability-tuner activity on method=auto jobs.")
	p.Int(`kind="record"`, m.tunerRecords.Load())
	p.Int(`kind="warmstart"`, m.tunerWarmstarts.Load())
	p.Int(`kind="switch"`, m.tunerSwitches.Load())
	p.Family("solverd_tuner_fingerprints", "gauge", "Operator fingerprints with a recorded best configuration.").Int("", int64(mgr.tuner.Len()))

	p.Family("solverd_request_seconds", "histogram", "")
	m.latency.write(p)

	m.obsMu.Lock()
	phases := m.phases
	overlap := m.overlap
	m.obsMu.Unlock()
	p.Family("solverd_phase_seconds", "histogram", "Traced per-phase durations aggregated over finished jobs and ranks.")
	for _, ph := range obs.Phases() {
		st := phases[ph]
		p.Histogram(fmt.Sprintf("phase=%q", ph.String()), obs.DurationBuckets[:], st.Buckets[:], float64(st.TotalNS)/1e9)
	}

	seconds := func(ns int64) float64 { return float64(ns) / 1e9 }
	p.Family("solverd_overlap_reductions_total", "counter", "Reductions recorded in the overlap ledger, by kind.")
	p.Int(`kind="posted"`, int64(overlap.Posted))
	p.Int(`kind="blocking"`, int64(overlap.Blocking))
	p.Family("solverd_overlap_interval_seconds_total", "counter", "Post-to-complete time summed over non-blocking reductions.").Float("", seconds(overlap.IntervalNS))
	p.Family("solverd_overlap_wait_seconds_total", "counter", "Time non-blocking reductions were still waited on at their completion point.").Float("", seconds(overlap.WaitNS))
	p.Family("solverd_overlap_blocking_wait_seconds_total", "counter", "Time spent inside blocking reductions.").Float("", seconds(overlap.BlockingWaitNS))
	p.Family("solverd_overlap_compute_under_seconds_total", "counter", "Compute time that ran under an in-flight reduction.").Float("", seconds(overlap.ComputeUnderNS))
	p.Family("solverd_overlap_efficiency", "gauge", "Measured hidden fraction: 1 - wait/interval over all posted reductions.").Float("", overlap.HiddenFraction())

	m.skewMu.Lock()
	skew := m.skewLast
	skewSolves := m.skewSolves
	m.skewMu.Unlock()
	if skewSolves == 0 {
		// The zero-value report says rank 0; honor the "-1 = none analyzed"
		// contract until noteSkew has stored a real one.
		skew.StragglerRank = -1
	}
	p.Family("solverd_rank_skew", "gauge", "Per-rank straggler score of the most recent analyzed multi-rank solve (compute excess + wait deficit + transit excess).")
	for _, r := range skew.Ranks {
		p.Float(fmt.Sprintf(`rank="%d"`, r.Rank), r.Score)
	}
	p.Family("solverd_rank_skew_straggler", "gauge", "Rank with the highest straggler score in the most recent analyzed solve (-1 = none analyzed).").Int("", int64(skew.StragglerRank))
	p.Family("solverd_rank_skew_imbalance", "gauge", "Compute load-balance ratio max/mean of the most recent analyzed solve.").Float("", skew.Imbalance)
	p.Family("solverd_rank_skew_solves_total", "counter", "").Int("", skewSolves)

	obs.WriteGoRuntimeMetrics(p, "solverd")

	// The kernel-counter aggregate over finished jobs (trace.Counters), one
	// counter family per field.
	m.mu.Lock()
	snap := m.kernels
	m.mu.Unlock()
	snap.WritePrometheus(p, "solverd_kernel", "")
}

// Snapshot is the one-line drain summary flushed through the service log.
func (m *Metrics) Snapshot(mgr *Manager, reg *Registry) string {
	m.mu.Lock()
	k := m.kernels
	m.mu.Unlock()
	return fmt.Sprintf(
		"jobs{converged=%d failed=%d canceled=%d rejected=%d drained=%d deduped=%d} cache{hits=%d misses=%d evictions=%d entries=%d} kernels{%s} recovery{%s}",
		m.jobsConverged.Load(), m.jobsFailed.Load(), m.jobsCanceled.Load(),
		m.jobsRejected.Load(), m.jobsDrained.Load(), m.jobsDeduped.Load(),
		m.cacheHits.Load(), m.cacheMisses.Load(), m.cacheEvictions.Load(), reg.Len(),
		k.String(), k.RecoveryString())
}
