package serve

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestPprofGatedByFlag pins the opt-in contract: the profiling endpoints
// exist exactly when Config.EnablePprof is set.
func TestPprofGatedByFlag(t *testing.T) {
	paths := []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"}
	for _, tc := range []struct {
		name   string
		enable bool
		want   int
	}{
		{"enabled", true, http.StatusOK},
		{"disabled", false, http.StatusNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 2, EnablePprof: tc.enable})
			for _, path := range paths {
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != tc.want {
					t.Errorf("GET %s with EnablePprof=%v: status %d, want %d",
						path, tc.enable, rec.Code, tc.want)
				}
			}
		})
	}
}

// TestHistogramConcurrentObserve hammers one histogram from several
// goroutines with a value that sums exactly in float64, then checks the
// rendered _sum/_count/_bucket series are mutually consistent — the
// invariant a torn (unlocked) Observe would break.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram()
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()

	var buf bytes.Buffer
	p := obs.NewPromWriter(&buf)
	p.Family("t", "histogram", "")
	h.write(p)
	series := map[string]string{}
	var infBucket string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		name, val, _ := strings.Cut(line, " ")
		series[name] = val
		if strings.Contains(name, `le="+Inf"`) {
			infBucket = val
		}
	}
	const total = goroutines * per
	if got := series["t_count"]; got != strconv.Itoa(total) {
		t.Errorf("t_count = %s, want %d", got, total)
	}
	if got, _ := strconv.ParseFloat(series["t_sum"], 64); got != 0.5*total {
		t.Errorf("t_sum = %v, want %v", got, 0.5*total)
	}
	if infBucket != strconv.Itoa(total) {
		t.Errorf("+Inf bucket = %s, want %d (must equal _count)", infBucket, total)
	}
}

// TestMetricsPhaseAndOverlapSeries drives a fake-clock tracer through one
// span and one posted reduction, folds it in with AddObs, and checks the
// scrape carries the per-phase histogram and the overlap gauge with the
// exact values the ledger measured.
func TestMetricsPhaseAndOverlapSeries(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})

	var now int64
	tr := obs.New(0, obs.WithClock(func() int64 { return now }))
	sp := tr.Begin(obs.PhaseSpMV)
	now += 2_000_000 // 2ms of SPMV
	tr.End(sp)
	h := tr.Post(3)
	now += 1_000_000 // 1ms hidden
	tr.BeginWait(h)
	now += 1_000_000 // 1ms exposed
	tr.EndWait(h)
	s.Metrics.AddObs(tr.Summary())

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`solverd_phase_seconds_count{phase="spmv"} 1`,
		fmt.Sprintf("solverd_phase_seconds_sum{phase=%q} 0.002", "spmv"),
		`solverd_phase_seconds_bucket{phase="pc_apply",le="+Inf"} 0`,
		`solverd_overlap_reductions_total{kind="posted"} 1`,
		`solverd_overlap_interval_seconds_total 0.002`,
		`solverd_overlap_wait_seconds_total 0.001`,
		// interval 2ms, residual wait 1ms → half the reduction was hidden.
		`solverd_overlap_efficiency 0.5`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestJobTraceSummaryAndResultEvent runs a pipelined job on the comm runtime
// through the manager and checks the observability plumbing end to end: the
// job retains a merged summary with phase spans and posted reductions, the
// result event carries the measured overlap efficiency, the service
// aggregate saw the same summary, and the structured log emitted the
// per-job record.
func TestJobTraceSummaryAndResultEvent(t *testing.T) {
	var logBuf syncBuffer
	s, _ := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4,
		Log: slog.New(slog.NewTextHandler(&logBuf, nil)),
	})

	j, err := s.Jobs.Submit(SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson7", N: 6},
		Method:      "pipe-pscg",
		Ranks:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not finish")
	}
	if st := j.State(); st != JobConverged {
		_, jerr := j.Result()
		t.Fatalf("job state %s (err %v)", st, jerr)
	}

	sum := j.TraceSummary()
	if sum.Overlap.Posted == 0 {
		t.Fatal("no posted reductions in the job trace — tracer not wired through runComm")
	}
	for _, ph := range []obs.Phase{obs.PhaseSpMV, obs.PhasePCApply, obs.PhaseGram, obs.PhaseRecurrenceLC} {
		if sum.Phases[ph].Count == 0 {
			t.Errorf("phase %s has no spans in the job summary", ph)
		}
	}

	// The terminal result event carries the ledger's hidden fraction.
	events, cancel := j.Subscribe()
	defer cancel()
	var last Event
	for ev := range events {
		last = ev
	}
	if last.Type != "result" {
		t.Fatalf("last event type %q", last.Type)
	}
	if last.OverlapEfficiency != sum.HiddenFraction() {
		t.Errorf("result event overlap efficiency %v != ledger %v",
			last.OverlapEfficiency, sum.HiddenFraction())
	}

	// Per-job structured log record with the key fields.
	logged := logBuf.String()
	for _, want := range []string{"job finished", "job=" + j.ID, "method=pipe-pscg", "ranks=2", "outcome=converged", "overlap_efficiency="} {
		if !strings.Contains(logged, want) {
			t.Errorf("log missing %q in:\n%s", want, logged)
		}
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
