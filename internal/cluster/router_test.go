package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// startShard runs a real solverd shard on an ephemeral port.
func startShard(t *testing.T, name string) (*serve.Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{Workers: 2, QueueDepth: 8, ShardID: name})
	go s.Serve(l)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, "http://" + l.Addr().String()
}

func fastRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, Base: time.Millisecond, Cap: 5 * time.Millisecond}
}

func postSolve(t *testing.T, h http.Handler, req serve.SolveRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, _ := json.Marshal(req)
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// TestRouterRoutesToPrimaryAndDedups: a solve lands on the ring primary for
// its operator key, and resubmitting the same idempotency key — the router's
// failover move — attaches to the already-solved job instead of solving
// again.
func TestRouterRoutesToPrimaryAndDedups(t *testing.T) {
	shards := []ShardConfig{}
	for _, name := range []string{"s0", "s1", "s2"} {
		_, url := startShard(t, name)
		shards = append(shards, ShardConfig{Name: name, URL: url})
	}
	rt, err := NewRouter(RouterConfig{Shards: shards, ProbeInterval: -1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	req := serve.SolveRequest{ProblemSpec: serve.ProblemSpec{Problem: "poisson7", N: 5}, JobKey: "route-1"}
	w := postSolve(t, rt.Handler(), req)
	if w.Code != http.StatusOK {
		t.Fatalf("solve via router: status %d: %s", w.Code, w.Body.String())
	}
	var st serve.JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.XHash == "" {
		t.Fatalf("routed solve did not converge: %+v", st)
	}
	primary := rt.Replicas(req.ProblemSpec.Key())[0]
	if got := w.Header().Get("X-Cluster-Shard"); got != primary {
		t.Fatalf("served by %s, ring primary is %s", got, primary)
	}
	if !strings.HasPrefix(st.ID, primary+"-job-") {
		t.Fatalf("job ID %q does not carry the serving shard prefix %q", st.ID, primary)
	}
	if got := w.Header().Get("X-Cluster-Attempts"); got != "1" {
		t.Fatalf("X-Cluster-Attempts = %s on the happy path, want 1", got)
	}

	// Same key again: must be the same job, not a second solve.
	w2 := postSolve(t, rt.Handler(), req)
	var st2 serve.JobStatus
	json.Unmarshal(w2.Body.Bytes(), &st2)
	if st2.ID != st.ID || st2.XHash != st.XHash {
		t.Fatalf("resubmitted key got job %s (x_hash %s), want %s (%s)", st2.ID, st2.XHash, st.ID, st.XHash)
	}
}

// TestRouterOversizedBody413: the router answers a body past the shared cap
// with 413, as the shards do.
func TestRouterOversizedBody413(t *testing.T) {
	_, url := startShard(t, "s0")
	rt, err := NewRouter(RouterConfig{Shards: []ShardConfig{{Name: "s0", URL: url}}, ProbeInterval: -1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	body := append([]byte(`{"problem":"`), bytes.Repeat([]byte("a"), serve.MaxSolveBodyBytes+1<<20)...)
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d for a 17 MiB body, want 413", w.Code)
	}
}

// TestRouterSlowHeaderClientDisconnected: the router's HTTP server hangs up
// on a client that stops halfway through its request headers, after the
// shards' ReadHeaderTimeout, and then routes a solve.
func TestRouterSlowHeaderClientDisconnected(t *testing.T) {
	t.Parallel()
	_, url := startShard(t, "s0")
	rt, err := NewRouter(RouterConfig{Shards: []ShardConfig{{Name: "s0", URL: url}}, ProbeInterval: -1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := serve.NewHTTPServer(rt.Handler())
	go hs.Serve(l)
	defer hs.Close()
	addr := l.Addr().String()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	fmt.Fprintf(conn, "POST /v1/solve HTTP/1.1\r\nHost: %s\r\nContent-Ty", addr)
	conn.SetReadDeadline(start.Add(serve.ReadHeaderTimeout + 5*time.Second))
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("a client stalled mid-header is still connected after %v", time.Since(start).Round(time.Second))
	}
	if held := time.Since(start); held < serve.ReadHeaderTimeout/2 {
		t.Fatalf("hung up after %v, before the header timeout %v", held, serve.ReadHeaderTimeout)
	}

	body, _ := json.Marshal(serve.SolveRequest{ProblemSpec: serve.ProblemSpec{Problem: "poisson7", N: 5}})
	resp, err := http.Post("http://"+addr+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusOK || !st.Converged {
		t.Fatalf("solve after the stalled client: status %d, %+v, %v", resp.StatusCode, st, err)
	}
}

// TestRouterBackpressurePropagation: a 429 from the owning shard reaches the
// client with its Retry-After intact and is NOT failed over — queue pressure
// is the client's signal, and moving it to a replica would just migrate the
// herd.
func TestRouterBackpressurePropagation(t *testing.T) {
	var hits [2]atomic.Int64
	mk := func(i int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" {
				w.Write([]byte(`{"status":"ok"}`))
				return
			}
			hits[i].Add(1)
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"queue full"}`))
		}))
	}
	a, b := mk(0), mk(1)
	defer a.Close()
	defer b.Close()
	rt, err := NewRouter(RouterConfig{
		Shards:        []ShardConfig{{Name: "s0", URL: a.URL}, {Name: "s1", URL: b.URL}},
		ProbeInterval: -1,
		Retry:         fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	w := postSolve(t, rt.Handler(), serve.SolveRequest{ProblemSpec: serve.ProblemSpec{Problem: "poisson7", N: 5}})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want propagated \"2\"", got)
	}
	if total := hits[0].Load() + hits[1].Load(); total != 1 {
		t.Fatalf("429 was failed over: %d upstream submissions, want 1", total)
	}
	if got := rt.met.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}

// TestRouterDrainFailover: a draining shard's 503 is a clean refusal — the
// router moves to the next replica in the same request, and the client sees
// only the successful answer (plus the failover breadcrumbs in the headers).
func TestRouterDrainFailover(t *testing.T) {
	_, liveURL := startShard(t, "live")
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"status":"draining"}`))
			return
		}
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"draining"}`))
	}))
	defer draining.Close()

	// Both orderings of the replica set exercise the same path: wherever the
	// draining shard sits, the live one serves.
	rt, err := NewRouter(RouterConfig{
		Shards:        []ShardConfig{{Name: "drainer", URL: draining.URL}, {Name: "live", URL: liveURL}},
		ProbeInterval: -1,
		Retry:         fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	req := serve.SolveRequest{ProblemSpec: serve.ProblemSpec{Problem: "poisson7", N: 5}, JobKey: "drain-1"}
	w := postSolve(t, rt.Handler(), req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Cluster-Shard"); got != "live" {
		t.Fatalf("served by %q, want the live shard", got)
	}
	var st serve.JobStatus
	json.Unmarshal(w.Body.Bytes(), &st)
	if !st.Converged {
		t.Fatalf("failover solve did not converge: %+v", st)
	}
	primary := rt.Replicas(req.ProblemSpec.Key())[0]
	if primary == "drainer" && rt.met.failovers.Load() != 1 {
		t.Fatalf("failovers = %d after serving off-primary, want 1", rt.met.failovers.Load())
	}
}

// TestRouterTransportErrorFailover: a dead shard (connection refused) costs
// a retry with the same idempotency key on the next replica; the client sees
// one successful response with X-Cluster-Attempts = 2, and the requeue is
// counted once.
func TestRouterTransportErrorFailover(t *testing.T) {
	_, liveURL := startShard(t, "live")
	// A listener that is closed immediately: connection refused, no handler.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + dead.Addr().String()
	dead.Close()

	rt, err := NewRouter(RouterConfig{
		Shards:        []ShardConfig{{Name: "dead", URL: deadURL}, {Name: "live", URL: liveURL}},
		ProbeInterval: -1,
		Retry:         fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	req := serve.SolveRequest{ProblemSpec: serve.ProblemSpec{Problem: "poisson7", N: 5}, JobKey: "dead-1"}
	w := postSolve(t, rt.Handler(), req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Cluster-Shard"); got != "live" {
		t.Fatalf("served by %q, want \"live\"", got)
	}
	primary := rt.Replicas(req.ProblemSpec.Key())[0]
	if primary == "dead" {
		if got := w.Header().Get("X-Cluster-Attempts"); got != "2" {
			t.Fatalf("X-Cluster-Attempts = %s through a dead primary, want 2", got)
		}
		if rt.met.requeued.Load() != 1 || rt.met.retries.Load() != 1 {
			t.Fatalf("requeued=%d retries=%d, want 1/1", rt.met.requeued.Load(), rt.met.retries.Load())
		}
	}
	var st serve.JobStatus
	json.Unmarshal(w.Body.Bytes(), &st)
	if !st.Converged || st.XHash == "" {
		t.Fatalf("failover solve did not converge: %+v", st)
	}
}

// TestRouterJobByID: status and event lookups route by the shard prefix in
// the job ID alone — the stateless-router property.
func TestRouterJobByID(t *testing.T) {
	shards := []ShardConfig{}
	for _, name := range []string{"s0", "s1", "s2"} {
		_, url := startShard(t, name)
		shards = append(shards, ShardConfig{Name: name, URL: url})
	}
	rt, err := NewRouter(RouterConfig{Shards: shards, ProbeInterval: -1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Async submit through the router → a routed job ID.
	body, _ := json.Marshal(serve.SolveRequest{ProblemSpec: serve.ProblemSpec{Problem: "poisson7", N: 5}})
	r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", w.Code, w.Body.String())
	}
	var acc struct {
		ID string `json:"id"`
	}
	json.Unmarshal(w.Body.Bytes(), &acc)
	owner := w.Header().Get("X-Cluster-Shard")
	if !strings.HasPrefix(acc.ID, owner+"-job-") {
		t.Fatalf("job ID %q vs serving shard %q", acc.ID, owner)
	}

	// Poll the routed status until terminal.
	deadline := time.Now().Add(10 * time.Second)
	for {
		gw := httptest.NewRecorder()
		rt.Handler().ServeHTTP(gw, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+acc.ID, nil))
		if gw.Code != http.StatusOK {
			t.Fatalf("status lookup: %d: %s", gw.Code, gw.Body.String())
		}
		if got := gw.Header().Get("X-Cluster-Shard"); got != owner {
			t.Fatalf("status routed to %s, job lives on %s", got, owner)
		}
		var st serve.JobStatus
		json.Unmarshal(gw.Body.Bytes(), &st)
		if st.State == serve.JobConverged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not converge: %+v", acc.ID, st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// An ID that names no shard is a 404, not a proxy attempt.
	gw := httptest.NewRecorder()
	rt.Handler().ServeHTTP(gw, httptest.NewRequest(http.MethodGet, "/v1/jobs/nope-job-1", nil))
	if gw.Code != http.StatusNotFound {
		t.Fatalf("unknown shard prefix: status %d, want 404", gw.Code)
	}
}

// TestRouterMetricsSurface: the /metrics plane exposes per-shard health and
// the retry/failover counters in Prometheus text format.
func TestRouterMetricsSurface(t *testing.T) {
	_, url := startShard(t, "s0")
	rt, err := NewRouter(RouterConfig{
		Shards:        []ShardConfig{{Name: "s0", URL: url}},
		ProbeInterval: -1,
		Retry:         fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	for _, want := range []string{
		`cluster_shards 1`,
		`cluster_shard_up{shard="s0"} 1`,
		`cluster_breaker_state{shard="s0"} 0`,
		`cluster_retries_total 0`,
		`cluster_failovers_total 0`,
		`cluster_requeued_jobs_total 0`,
		`cluster_rejected_total 0`,
	} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRouterOverhead measures the latency the router adds over a direct
// shard call on the status-read path (p50 over 300 reads of a finished
// job). The acceptance target is ≤ 1 ms p50 on an unloaded host; the assert
// is deliberately generous (10 ms) to stay green on noisy CI — the measured
// value is logged for the record.
func TestRouterOverhead(t *testing.T) {
	_, url := startShard(t, "s0")
	rt, err := NewRouter(RouterConfig{
		Shards:        []ShardConfig{{Name: "s0", URL: url}},
		ProbeInterval: -1,
		Retry:         fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// One finished job to read.
	body, _ := json.Marshal(serve.SolveRequest{ProblemSpec: serve.ProblemSpec{Problem: "poisson7", N: 5}})
	resp, err := http.Post(front.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.ID == "" {
		t.Fatal("no job to measure against")
	}

	p50 := func(base string) time.Duration {
		const n = 300
		lat := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			r, err := http.Get(base + "/v1/jobs/" + st.ID)
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			lat = append(lat, time.Since(t0))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)/2]
	}
	direct := p50(url)
	routed := p50(front.URL)
	overhead := routed - direct
	t.Logf("status-read p50: direct %v, routed %v, router overhead %v (target ≤ 1ms)", direct, routed, overhead)
	if overhead > 10*time.Millisecond {
		t.Fatalf("router p50 overhead %v exceeds 10ms", overhead)
	}
}

// TestRouterHealthzDegrades: with every shard refusing admissions the router
// itself reports 503 — load balancers upstream of the router get the same
// graceful-degradation signal clients do.
func TestRouterHealthzDegrades(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"status":"draining"}`)
	}))
	defer down.Close()
	rt, err := NewRouter(RouterConfig{
		Shards:        []ShardConfig{{Name: "s0", URL: down.URL}},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  time.Second,
		Retry:         fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if w.Code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router /healthz still %d with every shard draining", w.Code)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
