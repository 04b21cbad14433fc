package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/par"
)

// soloHashes solves each seed on a coalescing-off manager and returns the
// iterate fingerprints — the unbatched ground truth batch runs are compared
// against.
func soloHashes(t *testing.T, req SolveRequest, seeds []uint64) map[uint64]string {
	t.Helper()
	s := New(Config{Workers: 1, QueueDepth: len(seeds) + 1})
	defer s.Drain(context.Background())
	out := map[uint64]string{}
	for _, seed := range seeds {
		r := req
		r.RHSSeed = seed
		j, err := s.Jobs.Submit(r)
		if err != nil {
			t.Fatalf("solo submit seed %d: %v", seed, err)
		}
		<-j.Done()
		res, err := j.Result()
		if err != nil || res == nil || !res.Converged {
			t.Fatalf("solo seed %d did not converge: %v", seed, err)
		}
		if w := j.BatchWidth(); w != 1 {
			t.Fatalf("solo seed %d ran at width %d", seed, w)
		}
		out[seed] = j.XHash()
	}
	return out
}

// TestCoalesceDeterministic drives the manager directly with one worker and
// a plug job held in the pre-run test hook, so the coalescible jobs queue up
// behind it and are provably taken as ONE batch: every job reports the full
// width, converges, and hashes bit-identical to its solo baseline; a batch
// member whose deadline expired while queued comes back canceled without
// disturbing the others.
func TestCoalesceDeterministic(t *testing.T) {
	req := SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson125", N: 8},
		Method:      "pcg",
	}
	seeds := []uint64{11, 22, 33, 44}
	want := soloHashes(t, req, seeds)

	release := make(chan struct{})
	holding := make(chan struct{})
	cfg := Config{Workers: 1, QueueDepth: 16, CoalesceWidth: 8}
	cfg.testHookBeforeRun = func(j *Job) {
		if j.Req.Method == "pscg" { // the plug
			close(holding)
			<-release
		}
	}
	s := New(cfg)
	defer s.Drain(context.Background())

	plug := req
	plug.Method = "pscg" // different coalesce key: never joins the batch
	if _, err := s.Jobs.Submit(plug); err != nil {
		t.Fatal(err)
	}
	<-holding

	var jobs []*Job
	for _, seed := range seeds {
		r := req
		r.RHSSeed = seed
		j, err := s.Jobs.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// One more batch member with an already-blown deadline: it must finish
	// canceled before the gang forms, and must not shrink the others' width
	// below the live member count.
	doomed := req
	doomed.RHSSeed = 99
	doomed.TimeoutMS = 1
	dj, err := s.Jobs.Submit(doomed)
	if err != nil {
		t.Fatal(err)
	}
	close(release)

	for i, j := range jobs {
		<-j.Done()
		res, err := j.Result()
		if err != nil || res == nil || !res.Converged {
			t.Fatalf("batch job %d: not converged: %v", i, err)
		}
		if w := j.BatchWidth(); w != len(seeds) {
			t.Errorf("batch job %d: width %d, want %d", i, w, len(seeds))
		}
		if got := j.XHash(); got != want[seeds[i]] {
			t.Errorf("batch job %d (seed %d): x_hash %s, want solo %s", i, seeds[i], got, want[seeds[i]])
		}
	}
	<-dj.Done()
	if st := dj.State(); st != JobCanceled {
		t.Errorf("deadline-blown batch member: state %s, want canceled", st)
	}
	if got := s.Metrics.jobsCoalesced.Load(); got != int64(len(seeds)) {
		t.Errorf("jobsCoalesced = %d, want %d", got, len(seeds))
	}
}

// TestBatchSmoke is the end-to-end coalescing acceptance run (`make
// batch-smoke` runs it under the race detector): a real daemon on an
// ephemeral port, a held worker so a burst of 24 same-key jobs with distinct
// seeded right-hand sides piles up, then three deterministic batches of
// eight — zero lost jobs, every iterate hash-identical to its unbatched
// baseline, the batch-width metrics visible on /metrics, a clean drain and
// no goroutine leaks.
func TestBatchSmoke(t *testing.T) {
	par.Default()
	runtime.GC()
	base := runtime.NumGoroutine()

	req := SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson125", N: 8},
		Method:      "pcg",
	}
	const burst = 24
	const width = 8
	seeds := make([]uint64, burst)
	for i := range seeds {
		seeds[i] = uint64(1000 + i)
	}
	want := soloHashes(t, req, seeds)

	release := make(chan struct{})
	holding := make(chan struct{})
	cfg := Config{
		Workers:        1,
		QueueDepth:     burst + 8,
		CoalesceWidth:  width,
		CoalesceWindow: time.Millisecond,
	}
	cfg.testHookBeforeRun = func(j *Job) {
		if j.Req.Method == "pscg" {
			close(holding)
			<-release
		}
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	url := "http://" + l.Addr().String()

	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	post := func(r SolveRequest) string {
		body, _ := json.Marshal(r)
		resp, err := client.Post(url+"/v1/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		var acc struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
			t.Fatalf("submit decode: %v", err)
		}
		return acc.ID
	}

	plug := req
	plug.Method = "pscg"
	post(plug)
	<-holding

	ids := make([]string, burst)
	for i, seed := range seeds {
		r := req
		r.RHSSeed = seed
		ids[i] = post(r)
	}
	close(release)

	// Poll each job to its terminal state over the HTTP plane.
	deadline := time.Now().Add(30 * time.Second)
	for i, id := range ids {
		for {
			resp, err := client.Get(url + "/v1/jobs/" + id)
			if err != nil {
				t.Fatalf("status %s: %v", id, err)
			}
			var st JobStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("status decode %s: %v", id, err)
			}
			if st.State == JobConverged || st.State == JobFailed || st.State == JobCanceled {
				if st.State != JobConverged {
					t.Fatalf("job %s (seed %d): terminal state %s (%s)", id, seeds[i], st.State, st.Error)
				}
				if st.BatchWidth != width {
					t.Errorf("job %s: batch_width %d, want %d", id, st.BatchWidth, width)
				}
				if st.XHash != want[seeds[i]] {
					t.Errorf("job %s (seed %d): x_hash %s, want solo %s", id, seeds[i], st.XHash, want[seeds[i]])
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in state %s", id, st.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// The coalescing totals must be visible on the metrics plane.
	mr, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := mr.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	mr.Body.Close()
	out := sb.String()
	for _, wantLine := range []string{
		fmt.Sprintf("solverd_batch_width %d", width),
		fmt.Sprintf(`solverd_jobs_batched_total{mode="coalesced"} %d`, burst),
		`solverd_jobs_batched_total{mode="solo"} 1`,
	} {
		if !strings.Contains(out, wantLine) {
			t.Errorf("metrics missing %q", wantLine)
		}
	}

	tr.CloseIdleConnections()
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Drain")
	}

	tr.CloseIdleConnections()
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			break
		}
		if time.Now().After(leakDeadline) {
			var dump strings.Builder
			pprof.Lookup("goroutine").WriteTo(&dump, 1)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", runtime.NumGoroutine(), base, dump.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
