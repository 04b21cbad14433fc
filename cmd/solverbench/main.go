// Command solverbench is a closed-loop load generator for solverd: N client
// goroutines each hold one request in flight against /v1/solve, cycling over
// a set of problem specs, and every response is accounted — converged,
// rejected by admission control (429), canceled by its own deadline, or
// failed. The run is "clean" (exit 0) only when no job is lost: submitted
// work must end in exactly one of those buckets.
//
// Backpressure is a first-class outcome, not an error: a 429 (or drain 503)
// response is retried up to -retries times, honoring the server's
// Retry-After header with an exponential, -retry-cap-bounded fallback.
// Only a job still rejected after its retry budget files under rejected.
//
// With -cluster the bench speaks the solverouter dialect: every job carries
// an idempotency key, transport errors are retried by resubmitting the SAME
// key (the cluster dedups, so a retry can attach but never double-solve),
// and the run asserts ZERO lost jobs — against a healthy cluster every
// submission must converge, even if a shard dies mid-run.
//
// With -rhs k the bench instead exercises the multi-RHS coalescing path:
// k jobs differing only in rhs_seed are solved one at a time (the solo
// baseline), then re-submitted as one concurrent burst the server may
// coalesce into a block solve. Every burst x_hash must match its solo
// twin bit for bit; the report shows the batch widths achieved and the
// jobs/sec of both phases. Exit is nonzero on any hash mismatch.
//
// Example (against a local solverd):
//
//	solverbench -addr 127.0.0.1:8080 -clients 32 -jobs 4 \
//	    -problems 'poisson7:5,poisson7:6,poisson125:8,thermal2:64'
//
// Example (against a router fronting three shards):
//
//	solverbench -addr 127.0.0.1:8090 -cluster -clients 32 -jobs 4
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

type outcome struct {
	converged, rejected, canceled, failed, lost int
	retries, failovers                          int
	latencies                                   []time.Duration
}

type benchConfig struct {
	url      string
	retries  int
	retryCap time.Duration
	cluster  bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("solverbench: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "solverd (or solverouter) address")
		clients  = flag.Int("clients", 32, "concurrent closed-loop clients")
		jobs     = flag.Int("jobs", 4, "jobs per client")
		problems = flag.String("problems", "poisson7:5,poisson7:6,poisson125:8,thermal2:64",
			"comma-separated problem specs, name[:param] (param = n for grids, scale for stand-ins)")
		method    = flag.String("method", "", "solver method (empty = server default, the resilience ladder)")
		pc        = flag.String("pc", "", "preconditioner (empty = server default)")
		ranks     = flag.Int("ranks", 0, "solver ranks per job (0 = server default)")
		timeoutMS = flag.Int("timeout-ms", 0, "per-job budget override in milliseconds")
		retries   = flag.Int("retries", 8, "max backpressure (429/503) retries per job, honoring Retry-After")
		retryCap  = flag.Duration("retry-cap", 2*time.Second, "upper bound on any single retry sleep")
		cluster   = flag.Bool("cluster", false,
			"cluster mode: idempotency-keyed jobs, transport-error resubmission, zero-lost-jobs assertion")
		rhs = flag.Int("rhs", 0,
			"multi-RHS burst mode: k seeded jobs solo then as one burst, asserting bit-identical x_hash")
		traceOut = flag.String("trace-out", "",
			"originate a trace per job (root client_submit span) and write the bench's flight dump to this file")
		traceSeed = flag.Uint64("trace-seed", 0,
			"seed for trace/span ID generation (0 = wall clock)")
	)
	flag.Parse()

	specs, err := parseSpecs(*problems)
	if err != nil {
		log.Fatal(err)
	}
	cfg := benchConfig{
		url:      "http://" + strings.TrimPrefix(*addr, "http://"),
		retries:  *retries,
		retryCap: *retryCap,
		cluster:  *cluster,
	}

	if *rhs > 1 {
		req := specs[0]
		req.Method, req.PC, req.Ranks, req.TimeoutMS = *method, *pc, *ranks, *timeoutMS
		if err := rhsBurst(cfg, req, *rhs); err != nil {
			log.Fatal(err)
		}
		return
	}

	// With -trace-out every job originates a trace: a root client_submit span
	// covering the job's full closed-loop lifetime (including backpressure
	// retries), with the trace context carried in the request body so the
	// router and shard spans parent under it. The bench's own spans land in a
	// flight dump cmd/timeline -stitch merges with the server-side dumps.
	var tracer *benchTracer
	if *traceOut != "" {
		seed := *traceSeed
		if seed == 0 {
			seed = uint64(time.Now().UnixNano())
		}
		tracer = &benchTracer{
			ids:    obs.NewIDGen(seed),
			flight: obs.NewFlightRecorder("solverbench", "", *clients**jobs, 16),
		}
	}

	nonce := time.Now().UnixNano()
	results := make([]outcome, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < *jobs; k++ {
				req := specs[(c+k)%len(specs)]
				req.Method, req.PC, req.Ranks, req.TimeoutMS = *method, *pc, *ranks, *timeoutMS
				if cfg.cluster {
					req.JobKey = fmt.Sprintf("bench-%x-%d-%d", nonce, c, k)
				}
				if tracer != nil {
					done := tracer.begin(&req, fmt.Sprintf("c%d-j%d", c, k))
					results[c].account(cfg, req)
					done()
					continue
				}
				results[c].account(cfg, req)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if tracer != nil {
		if err := tracer.write(*traceOut); err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		fmt.Printf("  traces: %d client_submit spans written to %s\n", tracer.count(), *traceOut)
	}

	var total outcome
	for _, r := range results {
		total.converged += r.converged
		total.rejected += r.rejected
		total.canceled += r.canceled
		total.failed += r.failed
		total.lost += r.lost
		total.retries += r.retries
		total.failovers += r.failovers
		total.latencies = append(total.latencies, r.latencies...)
	}
	submitted := *clients * *jobs
	fmt.Printf("submitted %d jobs from %d clients over %d specs in %s\n",
		submitted, *clients, len(specs), elapsed.Round(time.Millisecond))
	fmt.Printf("  converged %d  rejected(429) %d  canceled %d  failed %d  lost %d  client-retries %d\n",
		total.converged, total.rejected, total.canceled, total.failed, total.lost, total.retries)
	if cfg.cluster {
		fmt.Printf("  cluster: %d responses served after router failover (X-Cluster-Attempts > 1)\n", total.failovers)
	}
	if n := len(total.latencies); n > 0 {
		sort.Slice(total.latencies, func(i, j int) bool { return total.latencies[i] < total.latencies[j] })
		fmt.Printf("  latency p50 %s  p95 %s  max %s\n",
			total.latencies[n/2].Round(time.Microsecond),
			total.latencies[n*95/100].Round(time.Microsecond),
			total.latencies[n-1].Round(time.Microsecond))
	}
	if total.lost > 0 || total.failed > 0 {
		log.Fatalf("run not clean: %d lost, %d failed", total.lost, total.failed)
	}
	if cfg.cluster && total.converged+total.canceled != submitted {
		log.Printf("cluster assertion failed: %d of %d jobs converged/canceled (zero lost jobs required)",
			total.converged+total.canceled, submitted)
		os.Exit(1)
	}
}

// benchTracer originates one trace per bench job. begin stamps the request's
// TraceParent with a fresh root context and returns the closure that records
// the client_submit span (submission through final accounted outcome) into
// the bench's flight recorder; write lands the dump for cmd/timeline -stitch.
type benchTracer struct {
	ids    *obs.IDGen
	flight *obs.FlightRecorder
	n      atomic.Int64
}

func (bt *benchTracer) begin(req *serve.SolveRequest, label string) func() {
	tctx := bt.ids.NewTrace()
	req.TraceParent = tctx.Traceparent()
	start := time.Now()
	return func() {
		bt.n.Add(1)
		bt.flight.RecordJob(obs.JobRecord{
			Job:     label,
			TraceID: tctx.TraceID.String(),
			Outcome: "submitted",
			Spans: []obs.TraceSpan{{
				TraceID: tctx.TraceID.String(), SpanID: tctx.SpanID.String(),
				Name: "client_submit", Service: "solverbench",
				StartUnixNS: start.UnixNano(), EndUnixNS: time.Now().UnixNano(),
				Attrs: map[string]string{"job": label},
			}},
			AnchorUnixNS: start.UnixNano(),
		})
	}
}

func (bt *benchTracer) count() int64 { return bt.n.Load() }

func (bt *benchTracer) write(path string) error {
	data, err := json.Marshal(bt.flight.Dump())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// rhsBurst checks the multi-RHS coalescing path end to end against a live
// server: k jobs that differ only in their RHS seed are first solved one at
// a time (the unbatched baseline), then re-submitted as one concurrent
// burst that the server may coalesce into a block solve. The block solve's
// determinism contract means every burst x_hash must equal its solo twin
// bit for bit regardless of the batch widths actually achieved.
func rhsBurst(cfg benchConfig, req serve.SolveRequest, k int) error {
	solve := func(seed uint64) (serve.JobStatus, error) {
		r := req
		r.RHSSeed = seed
		body, _ := json.Marshal(r)
		resp, err := http.Post(cfg.url+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			return serve.JobStatus{}, fmt.Errorf("seed %d: %v", seed, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return serve.JobStatus{}, fmt.Errorf("seed %d: HTTP %d", seed, resp.StatusCode)
		}
		var st serve.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return serve.JobStatus{}, fmt.Errorf("seed %d: decode: %v", seed, err)
		}
		if st.State != serve.JobConverged {
			return serve.JobStatus{}, fmt.Errorf("seed %d: state %s (%s)", seed, st.State, st.Error)
		}
		if st.XHash == "" {
			return serve.JobStatus{}, fmt.Errorf("seed %d: no x_hash in response", seed)
		}
		return st, nil
	}

	want := make([]string, k)
	t0 := time.Now()
	for j := 0; j < k; j++ {
		st, err := solve(uint64(j + 1))
		if err != nil {
			return fmt.Errorf("solo baseline: %v", err)
		}
		want[j] = st.XHash
	}
	solo := time.Since(t0)

	sts := make([]serve.JobStatus, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	t1 := time.Now()
	for j := 0; j < k; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			sts[j], errs[j] = solve(uint64(j + 1))
		}(j)
	}
	wg.Wait()
	burst := time.Since(t1)

	maxW, sumW, mismatches := 0, 0, 0
	for j := 0; j < k; j++ {
		if errs[j] != nil {
			return fmt.Errorf("burst: %v", errs[j])
		}
		w := sts[j].BatchWidth
		if w == 0 {
			w = 1
		}
		sumW += w
		if w > maxW {
			maxW = w
		}
		if sts[j].XHash != want[j] {
			mismatches++
			log.Printf("seed %d: burst x_hash %s != solo %s", j+1, sts[j].XHash, want[j])
		}
	}
	fmt.Printf("rhs burst k=%d on %s: solo %s (%.2f jobs/s), burst %s (%.2f jobs/s)\n",
		k, req.ProblemSpec.Key(),
		solo.Round(time.Millisecond), float64(k)/solo.Seconds(),
		burst.Round(time.Millisecond), float64(k)/burst.Seconds())
	fmt.Printf("  batch width max %d avg %.1f; %d/%d x_hash match the unbatched baseline\n",
		maxW, float64(sumW)/float64(k), k-mismatches, k)
	if mismatches > 0 {
		return fmt.Errorf("%d of %d burst hashes differ from the unbatched baseline", mismatches, k)
	}
	return nil
}

// parseRetryAfter interprets an RFC 7231 Retry-After value as a wait relative
// to now. Both wire forms are honored: delta-seconds ("120", including a
// legitimate "0" — retry immediately) and an HTTP-date (a date already past
// also means now). Absent, negative or otherwise malformed values return
// ok=false so the caller falls back to its own schedule — the old parser
// conflated "0", "-5" and garbage into the same fallback, so a server
// explicitly waiving the wait was made to pay the exponential backoff anyway.
// A delta too long for a Duration (past about 292 years, or past the int
// range) clamps to the longest Duration rather than wrapping negative.
func parseRetryAfter(value string, now time.Time) (time.Duration, bool) {
	value = strings.TrimSpace(value)
	if value == "" {
		return 0, false
	}
	// Atoi saturates an out-of-range value and reports ErrRange.
	if secs, err := strconv.Atoi(value); err == nil || errors.Is(err, strconv.ErrRange) {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(min(secs, int(math.MaxInt64/time.Second))) * time.Second, true
	}
	if when, err := http.ParseTime(value); err == nil {
		d := when.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// retrySleep picks the backpressure pause for the given retry ordinal: the
// server's Retry-After when it sent a valid one, else an exponential
// fallback, both clamped to the cap.
func retrySleep(resp *http.Response, attempt int, cap time.Duration) time.Duration {
	d, ok := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
	if !ok {
		d = 25 * time.Millisecond << uint(attempt)
	}
	if d > cap {
		d = cap
	}
	return d
}

// account drives one job to an accounted outcome: synchronous solve, with
// backpressure retried on the server's schedule and — in cluster mode —
// transport errors resubmitted under the job's idempotency key.
func (o *outcome) account(cfg benchConfig, req serve.SolveRequest) {
	body, _ := json.Marshal(req)
	t0 := time.Now()
	for attempt := 0; ; attempt++ {
		resp, err := http.Post(cfg.url+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			// Transport failure. In cluster mode the idempotency key makes a
			// resubmission safe (it attaches if the job was accepted); direct
			// mode has no such guarantee, so the job counts as lost.
			if cfg.cluster && attempt < cfg.retries {
				o.retries++
				time.Sleep(min(25*time.Millisecond<<uint(attempt), cfg.retryCap))
				continue
			}
			o.lost++
			return
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			d := retrySleep(resp, attempt, cfg.retryCap)
			resp.Body.Close()
			if attempt < cfg.retries {
				o.retries++
				time.Sleep(d)
				continue
			}
			o.rejected++
			return
		case http.StatusOK:
		default:
			resp.Body.Close()
			o.lost++
			return
		}
		var st serve.JobStatus
		derr := json.NewDecoder(resp.Body).Decode(&st)
		if cfg.cluster {
			if a, _ := strconv.Atoi(resp.Header.Get("X-Cluster-Attempts")); a > 1 {
				o.failovers++
			}
		}
		resp.Body.Close()
		if derr != nil {
			if cfg.cluster && attempt < cfg.retries {
				o.retries++
				continue
			}
			o.lost++
			return
		}
		switch st.State {
		case serve.JobConverged:
			o.converged++
			o.latencies = append(o.latencies, time.Since(t0))
		case serve.JobCanceled:
			o.canceled++
		default:
			o.failed++
		}
		return
	}
}

// parseSpecs turns "poisson7:5,thermal2:64" into solve requests; the single
// parameter maps onto N for grid problems and Scale for the stand-ins.
func parseSpecs(list string) ([]serve.SolveRequest, error) {
	var out []serve.SolveRequest
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, param := part, 0
		if i := strings.IndexByte(part, ':'); i >= 0 {
			name = part[:i]
			v, err := strconv.Atoi(part[i+1:])
			if err != nil {
				return nil, fmt.Errorf("bad spec %q: %v", part, err)
			}
			param = v
		}
		spec := serve.ProblemSpec{Problem: name}
		if strings.HasPrefix(name, "poisson") {
			spec.N = param
		} else {
			spec.Scale = param
		}
		out = append(out, serve.SolveRequest{ProblemSpec: spec})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no problem specs in %q", list)
	}
	return out, nil
}
