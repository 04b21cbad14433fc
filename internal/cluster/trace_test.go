package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// traceCluster is the shared harness for the tracing tests: n real solverd
// shards on real sockets behind a real router, torn down via t.Cleanup.
type traceCluster struct {
	rt      *Router
	front   string
	servers map[string]*serve.Server
	shards  []ShardConfig
}

func newTraceCluster(t *testing.T, n int, routerSeed uint64) *traceCluster {
	t.Helper()
	tc := &traceCluster{servers: map[string]*serve.Server{}}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := serve.New(serve.Config{
			Workers: 2, QueueDepth: 32, ShardID: name,
			TraceSeed: uint64(1000 + i),
		})
		go s.Serve(l)
		tc.servers[name] = s
		tc.shards = append(tc.shards, ShardConfig{Name: name, URL: "http://" + l.Addr().String()})
	}
	rt, err := NewRouter(RouterConfig{
		Shards:           tc.shards,
		TraceSeed:        routerSeed,
		ProbeInterval:    25 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerOpenFor:   250 * time.Millisecond,
		Retry:            RetryPolicy{MaxAttempts: 3, Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.rt = rt
	fl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	frontSrv := &http.Server{Handler: rt.Handler()}
	go frontSrv.Serve(fl)
	tc.front = "http://" + fl.Addr().String()
	t.Cleanup(func() {
		frontSrv.Close()
		rt.Close()
		for _, s := range tc.servers {
			dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			s.Jobs.Drain(dctx)
			cancel()
		}
	})
	return tc
}

// fetchFlight reads one participant's flight dump over its HTTP plane.
func fetchFlight(t *testing.T, base string) obs.FlightDump {
	t.Helper()
	resp, err := http.Get(base + "/v1/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump obs.FlightDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	return dump
}

// TestTraceSmoke is the end-to-end acceptance run (`make trace-smoke`): one
// keyed multi-rank job submitted bench-style — a client-originated trace
// context — through the real router against 2 real shards must yield a
// SINGLE stitched Chrome trace covering client submit → router route +
// attempt → queue wait → solve → per-rank phase timelines, with intact
// parent linkage, no orphan spans, and the core phases present per rank. The
// stitched artifact is written to /tmp/repro-trace-smoke.json so the
// Makefile can revalidate it with `repro timeline -check`.
func TestTraceSmoke(t *testing.T) {
	tc := newTraceCluster(t, 2, 77)

	// The client half of solverbench -trace-out: originate the trace, pin it
	// in the body, record the client_submit span around the round trip.
	ids := obs.NewIDGen(99)
	tctx := ids.NewTrace()
	traceID := tctx.TraceID.String()
	req := serve.SolveRequest{
		ProblemSpec: serve.ProblemSpec{Problem: "poisson7", N: 8},
		Method:      "pipe-pscg",
		Ranks:       4,
		JobKey:      "trace-smoke",
		TraceParent: tctx.Traceparent(),
	}
	body, _ := json.Marshal(req)
	clientStart := time.Now()
	resp, err := http.Post(tc.front+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	gotTrace := resp.Header.Get("X-Trace-Id")
	resp.Body.Close()
	clientEnd := time.Now()
	if derr != nil {
		t.Fatal(derr)
	}
	if st.State != serve.JobConverged {
		t.Fatalf("job state %s (%s)", st.State, st.Error)
	}
	if st.TraceID != traceID {
		t.Fatalf("job status trace_id %q, want the client-originated %q", st.TraceID, traceID)
	}
	if gotTrace != traceID {
		t.Fatalf("X-Trace-Id %q, want %q", gotTrace, traceID)
	}

	clientFlight := obs.NewFlightRecorder("solverbench", "", 4, 4)
	clientFlight.RecordJob(obs.JobRecord{
		Job: req.JobKey, TraceID: traceID, Outcome: "submitted",
		Spans: []obs.TraceSpan{{
			TraceID: traceID, SpanID: tctx.SpanID.String(),
			Name: "client_submit", Service: "solverbench",
			StartUnixNS: clientStart.UnixNano(), EndUnixNS: clientEnd.UnixNano(),
		}},
		AnchorUnixNS: clientStart.UnixNano(),
	})

	// Gather every hop's dump: client, router, both shards — the router and
	// shards over their real HTTP debug endpoints.
	dumps := []obs.FlightDump{clientFlight.Dump(), fetchFlight(t, tc.front)}
	for _, sc := range tc.shards {
		dumps = append(dumps, fetchFlight(t, sc.URL))
	}

	events, err := obs.StitchDumps(dumps, traceID)
	if err != nil {
		t.Fatalf("stitch: %v", err)
	}
	rep, err := obs.CheckChromeEvents(events)
	if err != nil {
		t.Fatalf("stitched trace failed validation: %v", err)
	}
	if rep.Roots != 1 {
		t.Errorf("stitched trace has %d root spans, want exactly 1 (client_submit)", rep.Roots)
	}
	// client_submit + route + ≥1 attempt + job + queue_wait + solve.
	if rep.Spans < 6 {
		t.Errorf("stitched trace has %d spans, want ≥ 6", rep.Spans)
	}
	if rep.Ranks < 4 {
		t.Errorf("stitched trace covers %d rank timelines, want ≥ 4", rep.Ranks)
	}
	if rep.Phases == 0 || rep.Reductions == 0 {
		t.Errorf("stitched trace missing phase/reduction events: %s", rep)
	}

	// The span CHAIN is intact across processes: client_submit ← route ←
	// attempt ← job ← {queue_wait, solve}.
	parentOf := map[string]string{} // name → parent span id
	spanID := map[string]string{}   // name → span id
	for _, ev := range events {
		if ev.Cat != "span" {
			continue
		}
		parentOf[ev.Name], _ = ev.Args["parent_id"].(string)
		spanID[ev.Name], _ = ev.Args["span_id"].(string)
	}
	for child, parent := range map[string]string{
		"route":      "client_submit",
		"attempt":    "route",
		"job":        "attempt",
		"queue_wait": "job",
		"solve":      "job",
	} {
		if _, ok := spanID[child]; !ok {
			t.Errorf("stitched trace has no %q span", child)
			continue
		}
		if parentOf[child] != spanID[parent] {
			t.Errorf("%s span parent %q, want %s span %q", child, parentOf[child], parent, spanID[parent])
		}
	}

	// Persist the artifact for `repro timeline -check` (the trace-smoke target).
	f, err := os.Create("/tmp/repro-trace-smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.FinishChromeTrace(f, events); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("trace-smoke: %s; artifact /tmp/repro-trace-smoke.json", rep)
}

// TestFailoverTracePropagation pins the satellite contract: when the primary
// shard is killed mid-stream, the resumed NDJSON relay and the retried job
// carry the SAME trace_id, and the router's flight record shows the route
// span with one attempt span per try.
func TestFailoverTracePropagation(t *testing.T) {
	tc := newTraceCluster(t, 2, 78)

	ids := obs.NewIDGen(101)
	tctx := ids.NewTrace()
	traceID := tctx.TraceID.String()
	// Heavy enough (~100ms) that the kill lands mid-solve.
	req := serve.SolveRequest{
		ProblemSpec: serve.ProblemSpec{Problem: "poisson7", N: 32},
		JobKey:      "trace-failover",
		TraceParent: tctx.Traceparent(),
	}
	victim := tc.rt.Replicas(req.ProblemSpec.Key())[0]

	body, _ := json.Marshal(req)
	resp, err := http.Post(tc.front+"/v1/solve?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Kill the primary once the job is verifiably in flight there.
	killDeadline := time.Now().Add(10 * time.Second)
	for tc.servers[victim].Jobs.InFlight() == 0 {
		if time.Now().After(killDeadline) {
			t.Fatal("job never started on the victim")
		}
		time.Sleep(200 * time.Microsecond)
	}
	tc.servers[victim].Kill()

	// Drain the resumed stream: every event line — from the first attempt
	// and from the retried job — must carry the client's trace_id.
	var events []serve.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	sawResult := false
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if ev.Type == "router_error" {
			t.Fatalf("router gave up: %q", line)
		}
		events = append(events, ev)
		if ev.TraceID != traceID {
			t.Errorf("event %q trace_id %q, want %q across the failover", ev.Type, ev.TraceID, traceID)
		}
		if ev.Type == "result" {
			sawResult = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(events) == 0 || !sawResult {
		t.Fatalf("resumed stream incomplete: %d events, result=%v", len(events), sawResult)
	}

	// The router's flight record for this route must show the retry as a
	// second attempt span under the same trace.
	var rec *obs.JobRecord
	dump := tc.rt.Flight().Dump()
	for i := range dump.Jobs {
		if dump.Jobs[i].TraceID == traceID {
			rec = &dump.Jobs[i]
		}
	}
	if rec == nil {
		t.Fatalf("no router flight record for trace %s", traceID)
	}
	if rec.Outcome != "ok" {
		t.Errorf("route outcome %q, want ok", rec.Outcome)
	}
	attempts := 0
	seen := map[string]bool{}
	for _, sp := range rec.Spans {
		if sp.Name != "attempt" {
			continue
		}
		attempts++
		if seen[sp.SpanID] {
			t.Errorf("duplicate attempt span id %s", sp.SpanID)
		}
		seen[sp.SpanID] = true
		if sp.TraceID != traceID {
			t.Errorf("attempt span trace %q, want %q", sp.TraceID, traceID)
		}
	}
	if attempts < 2 {
		t.Errorf("route recorded %d attempt spans, want ≥ 2 (kill must force a retry)", attempts)
	}

	// The surviving shard's job joined the same trace.
	for name, s := range tc.servers {
		if name == victim {
			continue
		}
		found := false
		for _, jr := range s.Jobs.Flight().Dump().Jobs {
			if jr.TraceID == traceID {
				found = true
			}
		}
		if !found {
			t.Errorf("survivor %s has no flight record for trace %s", name, traceID)
		}
	}
}
