package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// routes mounts the router API — the same surface as one solverd, served by
// the whole cluster:
//
//	POST /v1/solve            route by operator key; failover + retry; ?stream=1 proxies NDJSON
//	POST /v1/jobs             async submit, routed the same way → 202 {"id": "<shard>-job-N"}
//	GET  /v1/jobs             fan-in of every live shard's retained jobs
//	GET  /v1/jobs/{id}        routed to the owning shard by ID prefix
//	GET  /v1/jobs/{id}/events routed NDJSON passthrough
//	POST /v1/jobs/{id}/cancel routed to the owning shard
//	GET  /v1/matrices         per-shard registry listings
//	PUT  /v1/matrices/{name}  replicated to the key's replica set
//	GET  /v1/cluster          ring membership, replica sets, shard health
//	GET  /healthz             router liveness (+ per-shard states)
//	GET  /metrics             Prometheus: per-shard gauges, retry/failover counters
func (rt *Router) routes() {
	rt.mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		rt.handleSolve(w, r, "/v1/solve")
	})
	rt.mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		rt.handleSolve(w, r, "/v1/jobs")
	})
	rt.mux.HandleFunc("GET /v1/jobs", rt.handleJobsList)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJobByID)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/events", rt.handleJobByID)
	rt.mux.HandleFunc("POST /v1/jobs/{id}/cancel", rt.handleJobByID)
	rt.mux.HandleFunc("GET /v1/matrices", rt.handleMatrices)
	rt.mux.HandleFunc("PUT /v1/matrices/{name}", rt.handleUpload)
	rt.mux.HandleFunc("GET /v1/cluster", rt.handleCluster)
	rt.mux.HandleFunc("GET /v1/debug/flight", rt.handleFlight)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
}

// handleFlight serves the router's flight-recorder dump: the recent routed
// submissions (route + per-attempt spans) and shard-health transitions.
func (rt *Router) handleFlight(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.flight.Dump())
}

// handleSolve is the routed submission path, sync (/v1/solve, optionally
// streaming) and async (/v1/jobs). The request is decoded once — to derive
// the operator routing key and to pin an idempotency key — then re-marshaled
// and proxied. Failover policy:
//
//   - transport error (shard died, connection reset): breaker feeds, the
//     SAME body (same job key) is resubmitted to the next replica after
//     backoff — dedup on the shards makes this exactly-once-effective;
//   - 503 (draining): not an error; the next replica is tried, and if every
//     replica refuses the drain status propagates with Retry-After;
//   - 429 (queue full): propagated verbatim with Retry-After — backpressure
//     belongs to the client, failing over would just move the herd.
//
// Non-stream responses are buffered up to MaxBuffered before the first byte
// reaches the client, so an upstream death mid-response is retried
// invisibly. The attempt count is echoed in X-Cluster-Attempts and the
// serving shard in X-Cluster-Shard.
func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request, upstreamPath string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxSolveBodyBytes))
	if err != nil {
		apiError(w, serve.BodyErrorStatus(err), "read body: %v", err)
		return
	}
	var req serve.SolveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		apiError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Problem == "" {
		apiError(w, http.StatusBadRequest, "missing \"problem\"")
		return
	}
	if req.JobKey == "" {
		// Pin a router-generated idempotency key so the retry path is safe
		// even for clients that did not opt in.
		req.JobKey = fmt.Sprintf("rtr-%x-%d", rt.keyNonce, rt.keySeq.Add(1))
		if body, err = json.Marshal(req); err != nil {
			apiError(w, http.StatusInternalServerError, "re-marshal: %v", err)
			return
		}
	}
	key := req.ProblemSpec.Key()
	replicas := rt.Replicas(key)
	stream := r.URL.Query().Get("stream") != ""
	pathAndQuery := upstreamPath
	if r.URL.RawQuery != "" {
		pathAndQuery += "?" + r.URL.RawQuery
	}

	// Join the caller's trace (body field wins over the W3C header) or
	// originate one. The route span covers the whole routed submission; each
	// upstream try below becomes a child attempt span, and the attempt's own
	// context is pinned into the re-marshaled body so the serving shard's job
	// span parents under the attempt that actually reached it.
	if req.TraceParent == "" {
		req.TraceParent = r.Header.Get("traceparent")
	}
	var routeCtx obs.TraceContext
	routeParent := ""
	if parent, ok := obs.ParseTraceparent(req.TraceParent); ok {
		routeCtx = rt.ids.Child(parent)
		routeParent = parent.SpanID.String()
	} else {
		routeCtx = rt.ids.NewTrace()
	}
	w.Header().Set("X-Trace-Id", routeCtx.TraceID.String())
	routeStart := time.Now()
	routeOutcome := "unavailable"
	var attemptSpans []obs.TraceSpan
	defer func() {
		spans := make([]obs.TraceSpan, 0, 1+len(attemptSpans))
		spans = append(spans, obs.TraceSpan{
			TraceID: routeCtx.TraceID.String(), SpanID: routeCtx.SpanID.String(),
			ParentID: routeParent, Name: "route", Service: "solverouter",
			StartUnixNS: routeStart.UnixNano(), EndUnixNS: time.Now().UnixNano(),
			Attrs: map[string]string{"job_key": req.JobKey, "outcome": routeOutcome},
		})
		spans = append(spans, attemptSpans...)
		rt.flight.RecordJob(obs.JobRecord{
			Job: req.JobKey, TraceID: routeCtx.TraceID.String(),
			Outcome: routeOutcome, Spans: spans,
			AnchorUnixNS: routeStart.UnixNano(),
		})
	}()

	ctx := r.Context()
	attempts := 0
	resubmitted := false
	committed := false // bytes already written to the client (stream mode)
	maxAttempts := rt.retry.Attempts()
	for try := 0; try < maxAttempts; try++ {
		sh := rt.pick(replicas, try)
		if sh == nil {
			break // nothing accepting; fall through to 503
		}
		attempts++
		// Each try gets its own span context: the body is re-marshaled with
		// the attempt's traceparent (send() adds no headers) so a retried job
		// carries the SAME trace_id but a fresh attempt span — exactly what
		// X-Cluster-Attempts counts.
		aCtx := rt.ids.Child(routeCtx)
		req.TraceParent = aCtx.Traceparent()
		abody, merr := json.Marshal(req)
		if merr != nil {
			abody = body // can't happen for SolveRequest; fall back untagged
		}
		aStart := time.Now()
		endAttempt := func(outcome string) {
			attemptSpans = append(attemptSpans, obs.TraceSpan{
				TraceID: routeCtx.TraceID.String(), SpanID: aCtx.SpanID.String(),
				ParentID: routeCtx.SpanID.String(), Name: "attempt", Service: "solverouter",
				StartUnixNS: aStart.UnixNano(), EndUnixNS: time.Now().UnixNano(),
				Attrs: map[string]string{
					"attempt": fmt.Sprintf("%d", attempts),
					"shard":   sh.name, "outcome": outcome,
				},
			})
		}
		resp, err := rt.send(ctx, sh, http.MethodPost, pathAndQuery, abody)
		if err != nil {
			endAttempt("transport_error")
			sh.breaker.Failure()
			sh.up.Store(false)
			rt.log.Warn("cluster: submit failed, failing over",
				"shard", sh.name, "key", req.JobKey, "attempt", attempts, "error", err)
			rt.flight.RecordEvent(obs.FlightEvent{
				UnixNS: time.Now().UnixNano(), Kind: "failover",
				TraceID: routeCtx.TraceID.String(),
				Attrs: map[string]string{
					"shard": sh.name, "job_key": req.JobKey,
					"attempt": fmt.Sprintf("%d", attempts),
				},
			})
			if try+1 < maxAttempts {
				rt.met.retries.Add(1)
				if !resubmitted {
					resubmitted = true
					rt.met.requeued.Add(1)
				}
				if !rt.backoff(ctx, try+1) {
					return // client gone
				}
			}
			continue
		}
		switch resp.StatusCode {
		case http.StatusServiceUnavailable:
			// Draining (or just-shut-down) shard: clean refusal, try the
			// next replica without charging the breaker.
			endAttempt("draining")
			resp.Body.Close()
			sh.draining.Store(true)
			continue
		case http.StatusTooManyRequests:
			endAttempt("rejected")
			routeOutcome = "rejected"
			rt.met.rejected.Add(1)
			sh.breaker.Success()
			rt.relayBuffered(w, resp, sh, attempts)
			return
		}
		if sh.name != replicas[0] {
			rt.met.failovers.Add(1)
		}
		if stream {
			done := rt.relayStream(w, resp, sh, &committed)
			if done {
				endAttempt("ok")
				routeOutcome = "ok"
				sh.breaker.Success()
				return
			}
			// Upstream died mid-stream: resubmit the same key and keep
			// appending the replacement job's events to the open response.
			endAttempt("stream_lost")
			sh.breaker.Failure()
			sh.up.Store(false)
			rt.flight.RecordEvent(obs.FlightEvent{
				UnixNS: time.Now().UnixNano(), Kind: "failover",
				TraceID: routeCtx.TraceID.String(),
				Attrs: map[string]string{
					"shard": sh.name, "job_key": req.JobKey,
					"attempt": fmt.Sprintf("%d", attempts), "phase": "stream",
				},
			})
			if try+1 < maxAttempts {
				rt.met.retries.Add(1)
				if !resubmitted {
					resubmitted = true
					rt.met.requeued.Add(1)
				}
				if !rt.backoff(ctx, try+1) {
					return
				}
				continue
			}
			rt.streamError(w, "cluster: upstream lost mid-stream, retries exhausted")
			return
		}
		ok := rt.relayBuffered(w, resp, sh, attempts)
		if ok {
			endAttempt("ok")
			routeOutcome = "ok"
			sh.breaker.Success()
			return
		}
		// Body read failed before anything was committed: retry.
		endAttempt("relay_failed")
		sh.breaker.Failure()
		sh.up.Store(false)
		if try+1 < maxAttempts {
			rt.met.retries.Add(1)
			if !resubmitted {
				resubmitted = true
				rt.met.requeued.Add(1)
			}
			if !rt.backoff(ctx, try+1) {
				return
			}
		}
	}
	if committed {
		rt.streamError(w, "cluster: no replica available, retries exhausted")
		return
	}
	rt.met.unavailable.Add(1)
	w.Header().Set("Retry-After", "1")
	apiError(w, http.StatusServiceUnavailable, "cluster: no replica available for %s (replicas %v)", key, replicas)
}

// relayBuffered forwards a non-stream upstream response. The body is read
// fully (up to MaxBuffered) before the client sees a byte, so a read error
// here is retryable: it reports false and writes nothing. Oversized bodies
// (include_x on big systems) switch to pass-through streaming — committed,
// not retryable — truncation is then the client's signal.
func (rt *Router) relayBuffered(w http.ResponseWriter, resp *http.Response, sh *shard, attempts int) bool {
	defer resp.Body.Close()
	var buf bytes.Buffer
	lim := io.LimitReader(resp.Body, rt.cfg.MaxBuffered)
	if _, err := buf.ReadFrom(lim); err != nil {
		return false
	}
	copyProxyHeaders(w, resp)
	w.Header().Set("X-Cluster-Shard", sh.name)
	w.Header().Set("X-Cluster-Attempts", fmt.Sprintf("%d", attempts))
	w.WriteHeader(resp.StatusCode)
	w.Write(buf.Bytes())
	if int64(buf.Len()) == rt.cfg.MaxBuffered {
		io.Copy(w, resp.Body) // tail of an oversized body: stream, best effort
	}
	return true
}

// relayStream forwards an NDJSON event stream line by line, flushing each
// line. Returns true on clean upstream EOF; false when the upstream
// connection died mid-stream (the caller may resubmit and continue into the
// same response). committed tracks whether the response header and any bytes
// have been sent.
func (rt *Router) relayStream(w http.ResponseWriter, resp *http.Response, sh *shard, committed *bool) bool {
	defer resp.Body.Close()
	if !*committed {
		copyProxyHeaders(w, resp)
		w.Header().Set("X-Cluster-Shard", sh.name)
		w.WriteHeader(resp.StatusCode)
		*committed = true
	}
	flusher, _ := w.(http.Flusher)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		w.Write(sc.Bytes())
		w.Write([]byte("\n"))
		if flusher != nil {
			flusher.Flush()
		}
	}
	return sc.Err() == nil
}

// streamError appends a router-origin NDJSON line to an already-committed
// stream — the status line is gone, so the error travels in-band.
func (rt *Router) streamError(w http.ResponseWriter, msg string) {
	json.NewEncoder(w).Encode(map[string]string{"type": "router_error", "error": msg})
	if flusher, ok := w.(http.Flusher); ok {
		flusher.Flush()
	}
}

// copyProxyHeaders forwards the response headers that carry contract:
// content type and backpressure.
func copyProxyHeaders(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Retry-After", "Cache-Control"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
}

// shardForJob resolves the owning shard from a routed job ID
// ("<shard>-job-N"), the property that keeps the router stateless about
// jobs.
func (rt *Router) shardForJob(id string) *shard {
	for name, sh := range rt.shards {
		if strings.HasPrefix(id, name+"-job-") {
			return sh
		}
	}
	return nil
}

// handleJobByID proxies status, event-stream and cancel calls to the shard
// encoded in the job ID. No failover: a job's state lives on its shard, and
// if the shard is gone the honest answer is 502 — the client's recourse is
// resubmitting its idempotency key, which the routed submit path turns into
// a fresh (deduplicated) job on a live replica.
func (rt *Router) handleJobByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sh := rt.shardForJob(id)
	if sh == nil {
		apiError(w, http.StatusNotFound, "cluster: job %q does not name a known shard (want <shard>-job-N)", id)
		return
	}
	pathAndQuery := r.URL.Path
	if r.URL.RawQuery != "" {
		pathAndQuery += "?" + r.URL.RawQuery
	}
	resp, err := rt.send(r.Context(), sh, r.Method, pathAndQuery, nil)
	if err != nil {
		sh.breaker.Failure()
		sh.up.Store(false)
		apiError(w, http.StatusBadGateway, "cluster: shard %s unreachable: %v (resubmit the job key to fail over)", sh.name, err)
		return
	}
	sh.breaker.Success()
	defer resp.Body.Close()
	copyProxyHeaders(w, resp)
	w.Header().Set("X-Cluster-Shard", sh.name)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			w.Write(buf[:n])
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			return
		}
	}
}

// handleJobsList fans a GET /v1/jobs out to every reachable shard and
// concatenates the results.
func (rt *Router) handleJobsList(w http.ResponseWriter, r *http.Request) {
	var all []json.RawMessage
	for _, name := range rt.names {
		sh := rt.shards[name]
		resp, err := rt.send(r.Context(), sh, http.MethodGet, "/v1/jobs", nil)
		if err != nil {
			sh.up.Store(false)
			continue
		}
		var page []json.RawMessage
		if resp.StatusCode == http.StatusOK {
			json.NewDecoder(resp.Body).Decode(&page)
		}
		resp.Body.Close()
		all = append(all, page...)
	}
	if all == nil {
		all = []json.RawMessage{}
	}
	writeJSON(w, http.StatusOK, all)
}

// handleMatrices reports each shard's registry listing, keyed by shard.
func (rt *Router) handleMatrices(w http.ResponseWriter, r *http.Request) {
	out := map[string]json.RawMessage{}
	for _, name := range rt.names {
		sh := rt.shards[name]
		resp, err := rt.send(r.Context(), sh, http.MethodGet, "/v1/matrices", nil)
		if err != nil {
			sh.up.Store(false)
			continue
		}
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			out[name] = raw
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleUpload replicates a MatrixMarket upload to the name's replica set —
// the same shards a solve for this operator can route to, so failover never
// lands on a shard without the matrix. The primary write must succeed;
// secondary failures degrade replication (logged, counted) without failing
// the upload.
func (rt *Router) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxUploadBytes))
	if err != nil {
		apiError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	key := serve.ProblemSpec{Problem: name}.Key()
	replicas := rt.Replicas(key)
	var primaryResp []byte
	primaryCode := 0
	var stored []string
	for i, rep := range replicas {
		sh := rt.shards[rep]
		resp, err := rt.send(r.Context(), sh, http.MethodPut, "/v1/matrices/"+name, body)
		if err != nil {
			sh.breaker.Failure()
			sh.up.Store(false)
			if i == 0 {
				apiError(w, http.StatusBadGateway, "cluster: primary %s unreachable: %v", rep, err)
				return
			}
			rt.log.Warn("cluster: upload replica write failed", "shard", rep, "name", name, "error", err)
			continue
		}
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		sh.breaker.Success()
		if i == 0 {
			primaryResp, primaryCode = raw, resp.StatusCode
			if resp.StatusCode != http.StatusCreated {
				// A rejected matrix (parse error, shadows a built-in) is the
				// client's problem; don't replicate garbage.
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(resp.StatusCode)
				w.Write(raw)
				return
			}
		}
		if resp.StatusCode == http.StatusCreated {
			stored = append(stored, rep)
			rt.met.uploadRepl.Add(1)
		}
	}
	var parsed map[string]any
	if err := json.Unmarshal(primaryResp, &parsed); err != nil || primaryCode != http.StatusCreated {
		parsed = map[string]any{"name": name}
	}
	parsed["replicas"] = stored
	writeJSON(w, http.StatusCreated, parsed)
}

// shardView is the health/breaker state of one shard, as served on
// /healthz and /v1/cluster.
type shardView struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Up       bool   `json:"up"`
	Draining bool   `json:"draining"`
	Breaker  string `json:"breaker"`
}

func (rt *Router) shardViews() []shardView {
	out := make([]shardView, 0, len(rt.names))
	for _, name := range rt.names {
		sh := rt.shards[name]
		out = append(out, shardView{
			Name:     sh.name,
			URL:      sh.base,
			Up:       sh.up.Load(),
			Draining: sh.draining.Load(),
			Breaker:  sh.breaker.State().String(),
		})
	}
	return out
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	views := rt.shardViews()
	accepting := 0
	for _, v := range views {
		if v.Up && !v.Draining {
			accepting++
		}
	}
	code, status := http.StatusOK, "ok"
	if accepting == 0 {
		code, status = http.StatusServiceUnavailable, "no shard accepting"
	}
	writeJSON(w, code, map[string]any{"status": status, "accepting": accepting, "shards": views})
}

func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"members":  rt.ring.Members(),
		"vnodes":   rt.cfg.VNodes,
		"replicas": rt.cfg.Replicas,
		"shards":   rt.shardViews(),
	})
}
