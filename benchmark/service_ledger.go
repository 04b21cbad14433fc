package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// gangLedger times blockcg.Solve directly: k right-hand sides as one gang
// against the same k solved one after another.
func (s *serviceRun) gangLedger(out metrics) {
	t := s.templates()[0]
	a, op := s.ref.mats[opKey(t.req)], s.ref.ops[opKey(t.req)]
	pc := newJacobi(a, 0, a.Rows)
	bs := make([][]float64, s.w.burst)
	for i := range bs {
		r := t.req
		r.RHSSeed = uint64(1 + i)
		bs[i] = s.ref.rhs(r)
	}
	var ratio sample
	for rep := 0; rep < s.cfg.calls(7); rep++ {
		t0 := time.Now()
		for _, b := range bs {
			if _, _, err := seqSolve(op, pc, t.req.Method, b, nil); err != nil {
				s.g.fail("gang baseline: %v", err)
			}
		}
		solo := time.Since(t0).Seconds()
		t0 = time.Now()
		res, err := gangSolve(op, pc, t.req.Method, bs)
		gang := time.Since(t0).Seconds()
		if err != nil {
			s.g.fail("gang solve: %v", err)
			continue
		}
		for i, r := range res {
			s.g.check(s.g.checkIterate("gang column", r.Converged, a, r.X, bs[i], solveRelTol))
		}
		ratio = append(ratio, solo/gang)
	}
	out["blockcg.gang_per_rhs_speedup_k8"] = ratio.median()
}

// serviceLedger reads the ledgers the program exposes — /v1/debug/flight and
// /metrics of every daemon, and of the router — and fills serve.*, cluster.*
// and the service-side obs.* metrics. It also copies the fetched job trees of
// traced jobs into the span file under their client_submit span.
func (s *serviceRun) serviceLedger(out metrics, dep *deployment, timed []done, wall float64) error {
	c := newClient()
	defer c.close()
	byID := map[string]done{}
	bySpan := map[string]done{}
	for _, d := range timed {
		byID[d.id] = d
		if d.traced {
			bySpan[d.spanID] = d
		}
	}

	var queue, coalesce, solve sample
	var busy float64
	workers := 0.0
	prom := map[string]float64{}
	flightBytes := 0
	for _, url := range dep.daemons {
		resp, err := c.hc.Get(url + "/v1/debug/flight")
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		flightBytes += len(data)
		var dump flightDump
		if err := json.Unmarshal(data, &dump); err != nil {
			return fmt.Errorf("flight dump: %w", err)
		}
		if dump.DroppedJobs > 0 {
			s.g.fail("flight recorder dropped %d job records; per-layer numbers would be partial", dump.DroppedJobs)
		}
		for _, rec := range dump.Jobs {
			d, ok := byID[rec.Job]
			if !ok {
				continue // warm-up, solo baseline, or the other phase
			}
			for _, sp := range rec.Spans {
				dur := float64(sp.EndUnixNS-sp.StartUnixNS) / 1e9
				switch sp.Name {
				case "queue_wait":
					queue = append(queue, dur)
				case "coalesce_wait":
					coalesce = append(coalesce, dur)
				case "solve":
					solve = append(solve, dur)
					busy += dur / float64(d.width) // a gang's solve span is shared by its members
				}
				if d.traced {
					s.log.add(span{ID: sp.SpanID, Parent: sp.ParentID, Op: fmt.Sprintf("job-%d", d.job.index),
						Name: sp.Name, Layer: sp.Service, Start: sp.StartUnixNS, End: sp.EndUnixNS})
				}
			}
		}
		m, err := c.scrape(url + "/metrics")
		if err != nil {
			return err
		}
		for k, v := range m {
			prom[k] += v
		}
		workers += m["solverd_workers"]
	}

	out["obs.flight_dump_bytes"] = float64(flightBytes)
	out["serve.queue_wait_p50_s"] = queue.median()
	out["serve.queue_wait_p95_s"] = queue.quantile(0.95)
	out["serve.coalesce_wait_p50_s"] = coalesce.median()
	out["serve.solve_span_p50_s"] = solve.median()
	out["serve.solve_span_p95_s"] = solve.quantile(0.95)
	if workers > 0 && wall > 0 {
		out["serve.worker_busy_share"] = busy / (workers * wall)
	}
	class := func(name string) sample {
		return latencies(timed, func(d done) bool { return d.job.class == name })
	}
	out["serve.small_p50_s"] = class("small").median()
	out["serve.small_p95_s"] = class("small").quantile(0.95)
	out["serve.medium_p50_s"] = class("medium").median()
	if lookups := prom["solverd_registry_hits_total"] + prom["solverd_registry_misses_total"]; lookups > 0 {
		out["serve.registry_hit_share"] = prom["solverd_registry_hits_total"] / lookups
	}
	out["serve.rejected_429"] = prom[`solverd_jobs_total{outcome="rejected"}`]
	co, so := prom[`solverd_jobs_batched_total{mode="coalesced"}`], prom[`solverd_jobs_batched_total{mode="solo"}`]
	if co+so > 0 {
		out["serve.coalesced_share"] = co / (co + so)
	}
	var widths sample
	for _, d := range timed {
		widths = append(widths, float64(d.width))
	}
	if len(widths) > 0 {
		out["serve.batch_width_mean"] = widths.sum() / float64(len(widths))
	}
	phaseSum := func(p string) float64 { return prom[`solverd_phase_seconds_sum{phase="`+p+`"}`] }
	total := 0.0
	for k, v := range prom {
		if strings.HasPrefix(k, "solverd_phase_seconds_sum{") {
			total += v
		}
	}
	if total > 0 {
		for _, p := range []string{"spmv", "gram", "recurrence_lc", "allreduce_wait"} {
			out["serve.phase_share."+p] = phaseSum(p) / total
		}
	}

	// Sending a traceparent is the only part of tracing a client can switch
	// (the daemon traces every job regardless). Its cost is taken per
	// operator, because the class medians sit between operators: median
	// latency with a traceparent over without, averaged over the operators.
	var ratios sample
	for _, t := range s.templates() {
		of := func(traced bool) sample {
			return latencies(timed, func(d done) bool { return d.traced == traced && opKey(d.job.req) == opKey(t.req) })
		}
		if with, without := of(true), of(false); len(with) > 0 && len(without) > 0 {
			ratios = append(ratios, with.median()/without.median())
		}
	}
	if len(ratios) > 0 {
		out["obs.traceparent_overhead_share"] = ratios.sum()/float64(len(ratios)) - 1
	}

	var routes []string
	if dep.router != nil {
		var err error
		if routes, err = s.clusterLedger(out, c, dep, timed); err != nil {
			return err
		}
	}
	// Self time = a span minus what its children cover, over the traced
	// jobs, whose trees are now in the span log: client_submit's is the HTTP
	// cost at the front door, route's is the router's own work.
	self := selfTimes(s.log.all())
	selfOf := func(ids []string) sample {
		var out sample
		for _, id := range ids {
			out = append(out, self[id].Seconds())
		}
		return out
	}
	var submits []string
	for id := range bySpan {
		submits = append(submits, id)
	}
	out["serve.http_overhead_p50_s"] = selfOf(submits).median()
	if dep.router != nil {
		out["cluster.route_self_p50_s"] = selfOf(routes).median()
		out["cluster.route_self_p95_s"] = selfOf(routes).quantile(0.95)
	}
	return nil
}

// clusterLedger reads the router's flight recorder and /metrics, copies the
// route and attempt spans of traced jobs into the span log, and returns the
// ids of their route spans.
func (s *serviceRun) clusterLedger(out metrics, c *client, dep *deployment, timed []done) (routes []string, err error) {
	var dump flightDump
	if _, err := c.get(dep.front+"/v1/debug/flight", &dump); err != nil {
		return nil, err
	}
	byKey := map[string]done{}
	perShard := map[string]float64{}
	tries := 0.0
	for _, d := range timed {
		byKey[d.job.req.JobKey] = d
		perShard[d.shard]++
		tries += float64(d.tries)
	}
	for _, rec := range dump.Jobs {
		d, ok := byKey[rec.Job]
		if !ok || !d.traced {
			continue
		}
		for _, sp := range rec.Spans {
			if sp.Name == "route" {
				routes = append(routes, sp.SpanID)
			}
			s.log.add(span{ID: sp.SpanID, Parent: sp.ParentID, Op: fmt.Sprintf("job-%d", d.job.index),
				Name: sp.Name, Layer: sp.Service, Start: sp.StartUnixNS, End: sp.EndUnixNS})
		}
	}
	out["cluster.small_p50_s"] = latencies(timed, func(d done) bool { return d.job.class == "small" }).median()
	if len(timed) > 0 {
		out["cluster.attempts_per_job"] = tries / float64(len(timed))
		for _, n := range perShard {
			out["cluster.shard_share_max"] = math.Max(out["cluster.shard_share_max"], n/float64(len(timed)))
		}
	}
	prom, err := c.scrape(dep.front + "/metrics")
	if err != nil {
		return nil, err
	}
	out["cluster.retries"] = prom["cluster_retries_total"]
	out["cluster.failovers"] = prom["cluster_failovers_total"]
	return routes, nil
}
