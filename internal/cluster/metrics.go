package cluster

import (
	"fmt"
	"io"
	"net/http"

	"repro/internal/obs"
)

// handleMetrics renders the router's Prometheus plane, following the PR-3
// solverd conventions (stable ordering, text format 0.0.4): per-shard
// health/breaker gauges read live at scrape time, per-shard request/error
// counters, and the cluster-level retry/failover/requeue totals the chaos
// acceptance asserts against.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rt.WritePrometheus(w)
}

// breakerGaugeValue maps breaker states onto a monotone severity scale:
// 0 closed, 1 half-open, 2 open — so `max` over time in a dashboard reads as
// "how broken did it get".
func breakerGaugeValue(s BreakerState) int64 {
	switch s {
	case BreakerClosed:
		return 0
	case BreakerHalfOpen:
		return 1
	default:
		return 2
	}
}

// WritePrometheus writes the router metrics snapshot.
func (rt *Router) WritePrometheus(w io.Writer) {
	p := obs.NewPromWriter(w)
	p.Family("cluster_shards", "gauge", "Configured shard count.").Int("", int64(len(rt.names)))
	p.Family("cluster_replicas", "gauge", "").Int("", int64(rt.cfg.Replicas))

	perShard := func(name, typ, help string, value func(*shard) int64) {
		p.Family(name, typ, help)
		for _, sh := range rt.names {
			p.Int(fmt.Sprintf("shard=%q", sh), value(rt.shards[sh]))
		}
	}
	perShard("cluster_shard_up", "gauge", "Shard reachability from the router (last probe or request).",
		func(s *shard) int64 { return obs.PromBool(s.up.Load()) })
	perShard("cluster_shard_draining", "gauge", "Shard alive but refusing admissions.",
		func(s *shard) int64 { return obs.PromBool(s.draining.Load()) })
	perShard("cluster_breaker_state", "gauge", "Circuit breaker position: 0 closed, 1 half-open, 2 open.",
		func(s *shard) int64 { return breakerGaugeValue(s.breaker.State()) })
	perShard("cluster_shard_requests_total", "counter", "Requests proxied to each shard (probes excluded).",
		func(s *shard) int64 { return s.requests.Load() })
	perShard("cluster_shard_errors_total", "counter", "Transport failures talking to each shard.",
		func(s *shard) int64 { return s.errors.Load() })

	p.Family("cluster_retries_total", "counter", "Attempts re-sent after an upstream failure.").Int("", rt.met.retries.Load())
	p.Family("cluster_failovers_total", "counter", "Requests served by a non-primary replica.").Int("", rt.met.failovers.Load())
	p.Family("cluster_requeued_jobs_total", "counter", "Solve jobs resubmitted at least once under their idempotency key.").Int("", rt.met.requeued.Load())
	p.Family("cluster_rejected_total", "counter", "Shard 429 responses propagated to clients with Retry-After.").Int("", rt.met.rejected.Load())
	p.Family("cluster_unavailable_total", "counter", "Router-issued 503s: no replica accepting after retries.").Int("", rt.met.unavailable.Load())
	p.Family("cluster_upload_replicas_total", "counter", "Successful upload replica writes.").Int("", rt.met.uploadRepl.Load())

	obs.WriteGoRuntimeMetrics(p, "cluster")
}
