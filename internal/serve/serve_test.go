package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// newTestServer builds a server with a small config and an httptest front.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		drainCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Jobs.Drain(drainCtx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) JobStatus {
	t.Helper()
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSolveSyncConverges(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson7", N: 6},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	if st.State != JobConverged || !st.Converged {
		t.Fatalf("state=%s converged=%v error=%q", st.State, st.Converged, st.Error)
	}
	if st.XHash == "" || st.Iterations == 0 {
		t.Fatalf("missing result detail: %+v", st)
	}
	if st.Method != "resilience-ladder" {
		t.Fatalf("default method = %q, want resilience-ladder", st.Method)
	}
}

// cliSolve runs poisson7 n=6 under Jacobi the way cmd/pipescg -runtime seq
// does — same problem, PC, options and solver on a fresh engine — the solo
// baseline the daemon's results are compared against.
func cliSolve(t *testing.T, method string) *krylov.Result {
	t.Helper()
	pr, err := workload.ProblemByName("poisson7", 6, 32)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := workload.PC("jacobi", pr)
	if err != nil {
		t.Fatal(err)
	}
	meth, err := krylov.MethodByName(method)
	if err != nil {
		t.Fatal(err)
	}
	opt := workload.DefaultOptions(pr)
	opt.S = 3
	opt.MaxIter = 100000
	res, err := meth.Solve(engine.NewSeq(pr.A, pc), pr.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServeBitIdentical is the acceptance gate: a solve submitted through
// the daemon produces a bit-identical iterate to the same problem run
// through the CLI path (engine.NewSeq + the bench solver registry, exactly
// what cmd/pipescg -runtime seq executes).
func TestServeBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	for _, method := range []string{"pipe-pscg", "pcg", "ladder"} {
		resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
			ProblemSpec: ProblemSpec{Problem: "poisson7", N: 6},
			Method:      method, PC: "jacobi", IncludeX: true,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", method, resp.StatusCode)
		}
		st := decodeStatus(t, resp)
		if st.State != JobConverged {
			t.Fatalf("%s: state=%s error=%q", method, st.State, st.Error)
		}

		res := cliSolve(t, method)
		if len(res.X) != len(st.X) {
			t.Fatalf("%s: X length %d vs %d", method, len(res.X), len(st.X))
		}
		for i := range res.X {
			if math.Float64bits(res.X[i]) != math.Float64bits(st.X[i]) {
				t.Fatalf("%s: iterate differs at %d: %x vs %x",
					method, i, math.Float64bits(res.X[i]), math.Float64bits(st.X[i]))
			}
		}
		if got, want := st.XHash, XHash(res.X); got != want {
			t.Fatalf("%s: x_hash %s vs local %s", method, got, want)
		}
	}
}

// TestFinishedJobDropsIterate: a finished job retains its iterate only when
// the submission asked for it back. Without include_x the stored result has
// no X and the status endpoint serves the hash computed once at finish; with
// include_x the iterate is kept bit for bit.
func TestFinishedJobDropsIterate(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	solo := cliSolve(t, "pipe-pscg")
	for _, includeX := range []bool{false, true} {
		j, err := s.Jobs.Submit(SolveRequest{
			ProblemSpec: ProblemSpec{Problem: "poisson7", N: 6},
			Method:      "pipe-pscg", PC: "jacobi", IncludeX: includeX,
		})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		res, err := j.Result()
		if err != nil || res == nil || !res.Converged {
			t.Fatalf("include_x=%v: job failed: %v", includeX, err)
		}
		if res.Iterations != solo.Iterations || len(res.History) != len(solo.History) {
			t.Errorf("include_x=%v: retained result lost its scalars: %d iterations, %d history entries",
				includeX, res.Iterations, len(res.History))
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeStatus(t, resp)
		if want := XHash(solo.X); st.XHash != want || j.XHash() != want {
			t.Errorf("include_x=%v: status x_hash %s, job %s, solo %s", includeX, st.XHash, j.XHash(), want)
		}
		if !includeX {
			if res.X != nil || st.X != nil {
				t.Errorf("job without include_x still holds its iterate (%d floats)", len(res.X))
			}
			continue
		}
		if len(res.X) != len(solo.X) || len(st.X) != len(solo.X) {
			t.Fatalf("include_x: X length %d / %d, want %d", len(res.X), len(st.X), len(solo.X))
		}
		for i := range solo.X {
			if math.Float64bits(res.X[i]) != math.Float64bits(solo.X[i]) ||
				math.Float64bits(st.X[i]) != math.Float64bits(solo.X[i]) {
				t.Fatalf("include_x: iterate differs at %d", i)
			}
		}
	}
}

func TestSolveCommRuntimeMatchesSeq(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	seq := decodeStatus(t, postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson7", N: 6},
		Method:      "pipe-pscg", PC: "jacobi", IncludeX: true,
	}))
	par := decodeStatus(t, postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson7", N: 6},
		Method:      "pipe-pscg", PC: "jacobi", IncludeX: true, Ranks: 4,
	}))
	if seq.State != JobConverged || par.State != JobConverged {
		t.Fatalf("seq=%s par=%s (err %q / %q)", seq.State, par.State, seq.Error, par.Error)
	}
	if len(par.X) != len(seq.X) {
		t.Fatalf("X length %d vs %d", len(par.X), len(seq.X))
	}
	// Distributed reductions re-associate sums, so require agreement to the
	// tolerance, not bitwise.
	for i := range seq.X {
		if d := math.Abs(seq.X[i] - par.X[i]); d > 1e-8 {
			t.Fatalf("comm iterate off at %d by %g", i, d)
		}
	}
}

// TestCommJobRunsPowersBlock: a ranks=2 job runs the message pattern of a
// direct comm solve on the same partition — under a diagonal preconditioner
// the pipelined powers ride one deep halo exchange per s products, so the job
// makes fewer exchanges than SPMVs; under SSOR the engine refuses and the job
// keeps one per product. Either way the iterate is the direct solve's, bit
// for bit (the Jacobi x_hash is pinned: that of the one-space solve).
func TestCommJobRunsPowersBlock(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	pr := workload.Poisson7(32)
	pt := partition.RowBlockByNNZ(pr.A, 2)
	opt := workload.DefaultOptions(pr)
	opt.S, opt.MaxIter = 3, 100000

	for _, tc := range []struct {
		pc         string
		factory    comm.PCFactory
		halo, spmv int
		xHash      string
	}{
		{pc: "jacobi", halo: 24, spmv: 64, xHash: "a23d56b48578e625",
			factory: func(a *sparse.CSR, lo, hi int) engine.Preconditioner { return precond.NewJacobi(a, lo, hi) }},
		{pc: "sor", halo: 34, spmv: 34,
			factory: func(a *sparse.CSR, lo, hi int) engine.Preconditioner { return precond.NewSSOR(a, lo, hi, 1.0, 1) }},
	} {
		f := comm.NewFabric(2, 0)
		engines := comm.NewEnginesOp(f, pr.A, pr.Operator(), pt, tc.factory)
		bs := comm.Scatter(pt, pr.B)
		xs := make([][]float64, 2)
		for r, err := range comm.RunErr(engines, func(r int, e *comm.Engine) error {
			res, err := krylov.PIPEPSCG(e, bs[r], opt)
			if err == nil {
				xs[r] = res.X
			}
			return err
		}) {
			if err != nil {
				t.Fatalf("%s: direct solve rank %d: %v", tc.pc, r, err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		direct := engines[0].Counters()

		j, err := s.Jobs.Submit(SolveRequest{
			ProblemSpec: ProblemSpec{Problem: "poisson7", N: 32},
			Method:      "pipe-pscg", PC: tc.pc, Ranks: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		res, err := j.Result()
		if err != nil || res == nil || !res.Converged {
			t.Fatalf("%s: job failed: %v", tc.pc, err)
		}
		c := j.Counters()
		if c.HaloExchanges != direct.HaloExchanges || c.SpMV != direct.SpMV {
			t.Errorf("%s: job made %d halo exchanges for %d SPMVs, the direct solve %d for %d",
				tc.pc, c.HaloExchanges, c.SpMV, direct.HaloExchanges, direct.SpMV)
		}
		if c.HaloExchanges != tc.halo || c.SpMV != tc.spmv {
			t.Errorf("%s: %d halo exchanges for %d SPMVs, want %d for %d",
				tc.pc, c.HaloExchanges, c.SpMV, tc.halo, tc.spmv)
		}
		got := j.XHash()
		if want := XHash(comm.Gather(pt, xs)); got != want {
			t.Errorf("%s: job x_hash %s, direct solve %s", tc.pc, got, want)
		}
		if tc.xHash != "" && got != tc.xHash {
			t.Errorf("%s: x_hash %s, want %s", tc.pc, got, tc.xHash)
		}
	}
}

// oversizedSolveBody is a syntactically plausible solve request one MiB past
// MaxSolveBodyBytes.
func oversizedSolveBody() []byte {
	return append([]byte(`{"problem":"`), bytes.Repeat([]byte("a"), MaxSolveBodyBytes+1<<20)...)
}

// TestOversizedBodyRejectedWith413: a directly addressed shard refuses a
// request body past the cap the router applies, on both submission routes,
// and serves the next job.
func TestOversizedBodyRejectedWith413(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	for _, path := range []string{"/v1/solve", "/v1/jobs"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(oversizedSolveBody()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d for a %d MiB body, want 413", path, resp.StatusCode, MaxSolveBodyBytes>>20+1)
		}
	}
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson7", N: 6},
	}))
	if st.State != JobConverged {
		t.Fatalf("job after the refused bodies: state=%s error=%q", st.State, st.Error)
	}
}

func TestQueueFullRejectsWith429(t *testing.T) {
	// One worker held at the gate + one queue slot: the third submission
	// deterministically sees a full queue.
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1,
		testHookBeforeRun: func(*Job) { <-gate },
	})
	defer close(gate)
	small := SolveRequest{ProblemSpec: ProblemSpec{Problem: "poisson7", N: 5}}

	// First job: accepted, picked up by the worker, parked at the gate.
	resp := postJSON(t, ts.URL+"/v1/jobs", small)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitFor(t, func() bool { return s.Jobs.InFlight() == 1 })

	// Second job: accepted, fills the single queue slot.
	resp = postJSON(t, ts.URL+"/v1/jobs", small)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Third: queue full → 429 + Retry-After.
	resp = postJSON(t, ts.URL+"/v1/jobs", small)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp.Body.Close()
	if s.Metrics.jobsRejected.Load() != 1 {
		t.Fatalf("jobsRejected=%d want 1", s.Metrics.jobsRejected.Load())
	}
}

func TestJobTimeoutCancels(t *testing.T) {
	// The worker sleeps past the job's 1ms budget before running it: the
	// deadline (measured from submission) is over at pickup, so the job is
	// canceled without touching the registry.
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4,
		testHookBeforeRun: func(*Job) { time.Sleep(20 * time.Millisecond) },
	})
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson7", N: 5},
		TimeoutMS:   1,
	})
	st := decodeStatus(t, resp)
	if st.State != JobCanceled {
		t.Fatalf("state=%s, want canceled (err %q)", st.State, st.Error)
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	resp := postJSON(t, ts.URL+"/v1/jobs", SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson125", N: 16},
		RelTol:      1e-13,
	})
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Wait for the first progress event, then cancel mid-solve.
	er, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(er.Body)
	sawProgress := false
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "progress" {
			sawProgress = true
			cr := postJSON(t, ts.URL+"/v1/jobs/"+sub.ID+"/cancel", struct{}{})
			cr.Body.Close()
			break
		}
	}
	er.Body.Close()
	if !sawProgress {
		t.Fatal("no progress event before stream end")
	}
	// The job must reach a terminal state promptly: canceled (or, if it
	// raced convergence in the last iteration, converged — never hung).
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := decodeStatus(t, mustGet(t, ts.URL+"/v1/jobs/"+sub.ID))
		if st.State == JobCanceled {
			return
		}
		if st.State == JobConverged {
			t.Log("job converged before cancellation landed (acceptable race)")
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s after cancel", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestEventStreamShape(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	resp := postJSON(t, ts.URL+"/v1/solve?stream=1", SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson7", N: 6},
	})
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var types []string
	var last Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
		last = ev
	}
	if len(types) < 3 {
		t.Fatalf("too few events: %v", types)
	}
	if types[0] != "queued" {
		t.Fatalf("first event %q, want queued", types[0])
	}
	if last.Type != "result" || last.State != JobConverged {
		t.Fatalf("last event %+v", last)
	}
	progress := 0
	for _, ty := range types {
		if ty == "progress" {
			progress++
		}
	}
	if progress == 0 {
		t.Fatal("no progress events streamed")
	}
}

func TestUploadThenSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	// 1D Laplacian, 50 unknowns, in MatrixMarket symmetric form.
	var mm strings.Builder
	n := 50
	fmt.Fprintf(&mm, "%%%%MatrixMarket matrix coordinate real symmetric\n%d %d %d\n", n, n, 2*n-1)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&mm, "%d %d 2.0\n", i, i)
		if i > 1 {
			fmt.Fprintf(&mm, "%d %d -1.0\n", i, i-1)
		}
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/matrices/lap1d", strings.NewReader(mm.String()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	resp.Body.Close()

	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "lap1d"}, Method: "pcg",
	}))
	if st.State != JobConverged {
		t.Fatalf("state=%s error=%q", st.State, st.Error)
	}

	mr := mustGet(t, ts.URL+"/v1/matrices")
	var ml MatricesResponse
	if err := json.NewDecoder(mr.Body).Decode(&ml); err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	if len(ml.Uploads) != 1 || ml.Uploads[0] != "lap1d" {
		t.Fatalf("uploads %v", ml.Uploads)
	}
	if len(ml.Resident) == 0 {
		t.Fatal("no resident entries after a solve")
	}
	// 50 rows, 148 nnz: RowPtr (8 B each), Col and Val (12 B per entry)
	// and B (8 B per row).
	if r := ml.Resident[0]; r.Bytes != 8*51+12*148+8*50 {
		t.Fatalf("resident %+v: bytes %d", r, r.Bytes)
	}
	if !slices.Equal(ml.Builtin, workload.Names) {
		t.Fatalf("builtin %v, catalogue %v", ml.Builtin, workload.Names)
	}
}

// TestUploadHeaderCannotSizeAllocation: an upload whose size line claims
// more than its body holds is a 400 — not an allocation sized by the claim —
// and the same daemon then serves a solve.
func TestUploadHeaderCannotSizeAllocation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	for _, body := range []string{
		"%%MatrixMarket matrix coordinate real symmetric\n1 1 50000000\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2000000000 2000000000 1\n1 1 1\n",
	} {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/matrices/x", strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status %d, want 400", body, resp.StatusCode)
		}
	}
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson7", N: 6}, Method: "pcg",
	}))
	if st.State != JobConverged {
		t.Fatalf("solve after refused uploads: state=%s error=%q", st.State, st.Error)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson7", N: 5},
	}))
	if st.State != JobConverged {
		t.Fatalf("warmup solve: %s (%s)", st.State, st.Error)
	}
	// The response is written when the job finishes, a moment before its
	// worker hands the running slot back; the scrape below reads that gauge.
	for deadline := time.Now().Add(2 * time.Second); s.Jobs.InFlight() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	hr := mustGet(t, ts.URL+"/healthz")
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", hr.StatusCode)
	}
	hr.Body.Close()

	mr := mustGet(t, ts.URL+"/metrics")
	body := new(strings.Builder)
	if _, err := bufio.NewReader(mr.Body).WriteTo(body); err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	out := body.String()
	for _, want := range []string{
		"solverd_jobs_total{outcome=\"converged\"} 1",
		"solverd_queue_depth 0",
		"solverd_inflight_jobs 0",
		"solverd_registry_entries 1",
		// poisson7 n=5: 125 rows, 725 nnz → 8·126 + 12·725 + 8·125.
		"solverd_registry_bytes 10708",
		"solverd_registry_misses_total 1",
		"solverd_request_seconds_bucket{le=\"+Inf\"} 1",
		"solverd_request_seconds_count 1",
		"solverd_kernel_spmv",
		"solverd_kernel_iterations",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
