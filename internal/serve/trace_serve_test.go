package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
)

// TestJobTracePropagation pins the daemon's half of the trace contract: a
// submission carrying a W3C traceparent joins that trace (same trace_id, job
// span parented under the caller's span), the trace_id rides on the job
// status and every NDJSON event, and the finished job lands in the flight
// recorder as a span tree — job span with queue_wait and solve children —
// served on GET /v1/debug/flight.
func TestJobTracePropagation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, TraceSeed: 42})

	const parentTrace = "0123456789abcdef0123456789abcdef"
	const parentSpan = "0123456789abcdef"
	req, err := http.NewRequest("POST", ts.URL+"/v1/solve",
		strings.NewReader(`{"problem":"poisson7","n":6,"method":"pipe-pscg"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+parentTrace+"-"+parentSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != JobConverged {
		t.Fatalf("job state %s (%s)", st.State, st.Error)
	}
	if st.TraceID != parentTrace {
		t.Fatalf("job status trace_id %q, want the propagated %q", st.TraceID, parentTrace)
	}

	// Replayed events carry the trace_id too.
	evResp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	var events []Event
	dec := json.NewDecoder(evResp.Body)
	for dec.More() {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("no events replayed")
	}
	for _, ev := range events {
		if ev.TraceID != parentTrace {
			t.Fatalf("event %q trace_id %q, want %q", ev.Type, ev.TraceID, parentTrace)
		}
	}

	// The flight recorder kept the span tree.
	flResp, err := http.Get(ts.URL + "/v1/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer flResp.Body.Close()
	var dump obs.FlightDump
	if err := json.NewDecoder(flResp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Service != "solverd" {
		t.Errorf("flight dump service %q, want solverd", dump.Service)
	}
	var rec *obs.JobRecord
	for i := range dump.Jobs {
		if dump.Jobs[i].Job == st.ID {
			rec = &dump.Jobs[i]
		}
	}
	if rec == nil {
		t.Fatalf("job %s not in flight dump (%d jobs)", st.ID, len(dump.Jobs))
	}
	if rec.TraceID != parentTrace || rec.Outcome != string(JobConverged) {
		t.Fatalf("flight record trace=%q outcome=%q", rec.TraceID, rec.Outcome)
	}
	spans := map[string]obs.TraceSpan{}
	for _, sp := range rec.Spans {
		spans[sp.Name] = sp
	}
	job, ok := spans["job"]
	if !ok {
		t.Fatalf("no job span in flight record (have %v)", spanNames(rec.Spans))
	}
	if job.ParentID != parentSpan {
		t.Errorf("job span parent %q, want caller span %q", job.ParentID, parentSpan)
	}
	for _, name := range []string{"queue_wait", "solve"} {
		sp, ok := spans[name]
		if !ok {
			t.Fatalf("no %s span in flight record (have %v)", name, spanNames(rec.Spans))
		}
		if sp.ParentID != job.SpanID {
			t.Errorf("%s span parent %q, want job span %q", name, sp.ParentID, job.SpanID)
		}
		if sp.StartUnixNS < job.StartUnixNS {
			t.Errorf("%s starts %d before its parent job span %d", name, sp.StartUnixNS, job.StartUnixNS)
		}
	}
	if len(rec.Ranks) == 0 {
		t.Error("flight record carries no per-rank summaries")
	}
	if rec.SolveSpanID != spans["solve"].SpanID {
		t.Errorf("record solve span id %q != solve span %q", rec.SolveSpanID, spans["solve"].SpanID)
	}

	// A submission with no trace context originates its own trace.
	resp2 := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson7", N: 6},
	})
	defer resp2.Body.Close()
	var st2 JobStatus
	if err := json.NewDecoder(resp2.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	if st2.TraceID == "" || st2.TraceID == parentTrace {
		t.Fatalf("originated trace_id %q: want fresh and non-empty", st2.TraceID)
	}

	// Drain writes the dump file with the shutdown event.
	s.cfg.FlightDumpPath = filepath.Join(t.TempDir(), "flight.json")
	s.dumpFlight("drain")
	data, err := os.ReadFile(s.cfg.FlightDumpPath)
	if err != nil {
		t.Fatal(err)
	}
	var fileDump obs.FlightDump
	if err := json.Unmarshal(data, &fileDump); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range fileDump.Events {
		if ev.Kind == "shutdown" && ev.Attrs["reason"] == "drain" {
			found = true
		}
	}
	if !found {
		t.Error("dump file missing the shutdown/drain flight event")
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func spanNames(spans []obs.TraceSpan) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// TestSkewDetectorFlagsInjectedStraggler validates the skew detector against
// the PR 2 straggler-jitter injector: with rank 2's sends jittered at P=4,
// the per-solve skew report must rank 2 highest (its peers accumulate wait
// it doesn't), the solverd_rank_skew metrics must reflect it, and the flight
// recorder must carry the rank_skew event.
func TestSkewDetectorFlagsInjectedStraggler(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4, TraceSeed: 7,
		SkewThreshold: 0.01, // the injected skew must clear any sane threshold
		testFabricFault: &comm.FaultConfig{
			Seed: 11, StragglerRank: 2, StragglerJitter: 500 * time.Microsecond,
		},
	})

	j, err := s.Jobs.Submit(SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson7", N: 8},
		Method:      "pipe-pscg",
		Ranks:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("job did not finish")
	}
	if st := j.State(); st != JobConverged {
		_, jerr := j.Result()
		t.Fatalf("job state %s (err %v)", st, jerr)
	}

	// The metrics plane carries the solve's skew report: rank 2 is the
	// straggler and every other rank's score trails its score.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readAll(t, resp)
	for _, want := range []string{
		`solverd_rank_skew{rank="2"}`,
		"solverd_rank_skew_straggler 2",
		"solverd_rank_skew_solves_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
	scores := map[int]float64{}
	for _, line := range strings.Split(body, "\n") {
		sample, ok := strings.CutPrefix(line, `solverd_rank_skew{rank="`)
		if !ok {
			continue
		}
		var rank int
		var score float64
		if _, err := fmt.Sscanf(strings.Replace(sample, `"}`, "", 1), "%d %g", &rank, &score); err != nil {
			t.Fatalf("unparsable skew sample %q: %v", line, err)
		}
		scores[rank] = score
	}
	if len(scores) != 4 {
		t.Fatalf("solverd_rank_skew has %d ranks, want 4:\n%s", len(scores), body)
	}
	for r, sc := range scores {
		if r != 2 && sc >= scores[2] {
			t.Errorf("rank %d score %.3f does not trail the straggler's %.3f", r, sc, scores[2])
		}
	}

	// The flight recorder carries the rank_skew event with the trace id.
	dump := s.Jobs.Flight().Dump()
	found := false
	for _, ev := range dump.Events {
		if ev.Kind == "rank_skew" {
			found = true
			if ev.TraceID != j.TraceID() {
				t.Errorf("rank_skew event trace %q != job trace %q", ev.TraceID, j.TraceID())
			}
			if ev.Attrs["straggler_rank"] != "2" {
				t.Errorf("rank_skew event straggler_rank %q, want 2", ev.Attrs["straggler_rank"])
			}
		}
	}
	if !found {
		t.Error("no rank_skew flight event recorded")
	}
	// The job's own flight record names the straggler on its solve span.
	solveSpans := 0
	for _, jr := range dump.Jobs {
		for _, sp := range jr.Spans {
			if jr.Job == j.ID && sp.Name == "solve" {
				solveSpans++
				if sp.Attrs["skew_rank"] != "2" {
					t.Errorf("solve span skew_rank %q, want 2", sp.Attrs["skew_rank"])
				}
			}
		}
	}
	if solveSpans != 1 {
		t.Errorf("job flight record has %d solve spans, want 1", solveSpans)
	}
}

// TestProfileRatesGatedByConfig pins the satellite contract for -pprof-mutex
// and -pprof-block: a default server leaves the runtime's mutex profile
// fraction untouched (absent when off), and setting the config fields applies
// them at construction.
func TestProfileRatesGatedByConfig(t *testing.T) {
	orig := runtime.SetMutexProfileFraction(-1) // getter form
	runtime.SetMutexProfileFraction(orig)
	defer func() {
		runtime.SetMutexProfileFraction(orig)
		runtime.SetBlockProfileRate(0)
	}()

	New(Config{Workers: 1, QueueDepth: 2})
	if got := runtime.SetMutexProfileFraction(-1); got != orig {
		t.Fatalf("default config changed mutex profile fraction: %d → %d", orig, got)
	}

	New(Config{Workers: 1, QueueDepth: 2, MutexProfileFraction: 7, BlockProfileRate: 1000})
	if got := runtime.SetMutexProfileFraction(-1); got != 7 {
		t.Fatalf("mutex profile fraction %d after MutexProfileFraction=7", got)
	}
}

// TestGoRuntimeMetricsOnScrape pins the satellite: build_info and the Go
// runtime gauges appear on the daemon's /metrics.
func TestGoRuntimeMetricsOnScrape(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readAll(t, resp)
	for _, want := range []string{
		"solverd_build_info{",
		"solverd_goroutines ",
		"solverd_gc_pause_seconds_total ",
		"solverd_heap_alloc_bytes ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
