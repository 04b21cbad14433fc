package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/serve"
)

// chaosOutcome is one accounted job as a chaos client saw it.
type chaosOutcome struct {
	key      string
	spec     string
	xhash    string
	attempts int
	shard    string
}

// submitKeyed drives one keyed job through the router to convergence,
// retrying backpressure (429/503, honoring Retry-After) and transient router
// unavailability with the SAME idempotency key — the client half of the
// zero-lost-jobs contract.
func submitKeyed(client *http.Client, front string, req serve.SolveRequest) (chaosOutcome, error) {
	body, _ := json.Marshal(req)
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Post(front+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			if time.Now().After(deadline) {
				return chaosOutcome{}, fmt.Errorf("%s: %v", req.JobKey, err)
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var st serve.JobStatus
			derr := json.NewDecoder(resp.Body).Decode(&st)
			attempts, _ := strconv.Atoi(resp.Header.Get("X-Cluster-Attempts"))
			shard := resp.Header.Get("X-Cluster-Shard")
			resp.Body.Close()
			if derr != nil || st.State != serve.JobConverged || st.XHash == "" {
				return chaosOutcome{}, fmt.Errorf("%s: state %s err %v (%s)", req.JobKey, st.State, derr, st.Error)
			}
			return chaosOutcome{key: req.JobKey, spec: req.ProblemSpec.Key(), xhash: st.XHash, attempts: attempts, shard: shard}, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			resp.Body.Close()
			if time.Now().After(deadline) {
				return chaosOutcome{}, fmt.Errorf("%s: backpressure past deadline", req.JobKey)
			}
			d := time.Duration(ra) * time.Second
			if d <= 0 || d > 200*time.Millisecond {
				d = 50 * time.Millisecond // capped for test pace
			}
			time.Sleep(d)
		default:
			b := make([]byte, 256)
			n, _ := resp.Body.Read(b)
			resp.Body.Close()
			return chaosOutcome{}, fmt.Errorf("%s: status %d: %s", req.JobKey, resp.StatusCode, b[:n])
		}
	}
}

// TestClusterChaos is the inter-daemon acceptance run (`make cluster-chaos`):
// three real solverd shards behind a real router on real sockets, a
// solverbench-shaped load of keyed jobs, and a SIGKILL-equivalent crash of
// one shard mid-solve. The crash is staged deterministically: a deliberately
// heavy "canary" solve (~100ms, vs sub-ms for the background load) is placed
// first, the shard that is ring-primary for it is the victim, and the kill
// fires while the canary is verifiably in flight there. Acceptance:
//
//   - zero lost jobs: every submission ends converged (client-side 429/503
//     retries with the same idempotency key are allowed, double solves are
//     not);
//   - every job affected by the crash was retried exactly once — its
//     response carries X-Cluster-Attempts: 2 — and at least one (the
//     canary) was affected;
//   - every x_hash is bit-identical to the single-daemon baseline for its
//     spec: failover changed where a job ran, never what it computed;
//   - after teardown the goroutine count returns to baseline — the crash
//     leaked nothing in the surviving processes' address space (which here
//     is also the "crashed" one's).
func TestClusterChaos(t *testing.T) {
	par.Default()
	runtime.GC()
	baseGoroutines := runtime.NumGoroutine()

	canary := serve.SolveRequest{ProblemSpec: serve.ProblemSpec{Problem: "poisson7", N: 32}}
	specs := []serve.SolveRequest{
		{ProblemSpec: serve.ProblemSpec{Problem: "poisson7", N: 6}},
		{ProblemSpec: serve.ProblemSpec{Problem: "poisson7", N: 7}, Method: "pipe-pscg"},
		{ProblemSpec: serve.ProblemSpec{Problem: "poisson125", N: 8}, Method: "pcg"},
		{ProblemSpec: serve.ProblemSpec{Problem: "thermal2", Scale: 64}, Method: "pscg"},
	}

	// Single-daemon baseline: the bit-exact x_hash each spec must produce no
	// matter which shard ends up solving it.
	baseline := map[string]string{}
	{
		solo := serve.New(serve.Config{Workers: 2, QueueDepth: 16})
		for _, sp := range append([]serve.SolveRequest{canary}, specs...) {
			j, err := solo.Jobs.Submit(sp)
			if err != nil {
				t.Fatal(err)
			}
			<-j.Done()
			res, err := j.Result()
			if err != nil || res == nil || !res.Converged {
				t.Fatalf("baseline %s: %v", sp.ProblemSpec.Key(), err)
			}
			baseline[sp.ProblemSpec.Key()] = j.XHash()
		}
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		solo.Drain(dctx)
		cancel()
	}

	// Three shards on real sockets.
	names := []string{"s0", "s1", "s2"}
	servers := map[string]*serve.Server{}
	shardCfgs := []ShardConfig{}
	for _, name := range names {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := serve.New(serve.Config{Workers: 2, QueueDepth: 32, ShardID: name})
		go s.Serve(l)
		servers[name] = s
		shardCfgs = append(shardCfgs, ShardConfig{Name: name, URL: "http://" + l.Addr().String()})
	}

	rt, err := NewRouter(RouterConfig{
		Shards:           shardCfgs,
		ProbeInterval:    25 * time.Millisecond,
		ProbeTimeout:     time.Second,
		BreakerThreshold: 1,
		BreakerOpenFor:   250 * time.Millisecond,
		Retry:            RetryPolicy{MaxAttempts: 3, Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	frontSrv := &http.Server{Handler: rt.Handler()}
	go frontSrv.Serve(fl)
	front := "http://" + fl.Addr().String()

	// The victim is the ring primary of the canary: the heavy solve is
	// guaranteed to be running there when the kill fires.
	victim := rt.Replicas(canary.ProblemSpec.Key())[0]
	t.Logf("chaos: victim shard is %s (primary for canary %s)", victim, canary.ProblemSpec.Key())

	tr := &http.Transport{MaxIdleConnsPerHost: 64}
	client := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	const clients = 24
	const jobsPerClient = 4
	const totalJobs = clients*jobsPerClient + 1 // + canary
	results := make(chan chaosOutcome, totalJobs)
	errs := make(chan error, totalJobs)

	var wg sync.WaitGroup

	// 1. The canary goes first, onto an idle cluster, so the victim's
	// in-flight count is unambiguously the canary.
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := canary
		req.JobKey = "chaos-canary"
		if o, err := submitKeyed(client, front, req); err != nil {
			errs <- err
		} else {
			results <- o
		}
	}()
	killDeadline := time.Now().Add(10 * time.Second)
	for servers[victim].Jobs.InFlight() == 0 {
		if time.Now().After(killDeadline) {
			t.Fatal("canary never started on the victim; cannot stage the crash")
		}
		time.Sleep(200 * time.Microsecond)
	}

	// 2. Background load starts while the canary solves.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < jobsPerClient; k++ {
				req := specs[(c+k)%len(specs)]
				req.JobKey = fmt.Sprintf("chaos-%d-%d", c, k)
				if o, err := submitKeyed(client, front, req); err != nil {
					errs <- err
					return
				} else {
					results <- o
				}
			}
		}(c)
	}

	// 3. The kill lands mid-canary (and mid-whatever background load reached
	// the victim).
	time.Sleep(5 * time.Millisecond)
	inflight := servers[victim].Jobs.InFlight()
	servers[victim].Kill()
	t.Logf("chaos: killed %s with %d solve(s) in flight", victim, inflight)

	wg.Wait()
	close(results)
	close(errs)
	for err := range errs {
		t.Errorf("lost job: %v", err)
	}

	// Zero lost jobs, bit-identical answers, exactly-once retries.
	byKey := map[string]chaosOutcome{}
	affected := 0
	for o := range results {
		if prev, dup := byKey[o.key]; dup {
			t.Errorf("job key %s produced two outcomes: %+v and %+v", o.key, prev, o)
		}
		byKey[o.key] = o
		if want := baseline[o.spec]; o.xhash != want {
			t.Errorf("%s on %s: x_hash %s, single-daemon baseline %s", o.key, o.shard, o.xhash, want)
		}
		if o.attempts > 1 {
			affected++
			if o.attempts != 2 {
				t.Errorf("%s: %d attempts — affected jobs must be retried exactly once", o.key, o.attempts)
			}
			if o.shard == victim {
				t.Errorf("%s: retried job served by the killed shard %s", o.key, victim)
			}
		}
	}
	if got := len(byKey); got != totalJobs {
		t.Fatalf("lost jobs: %d of %d accounted", got, totalJobs)
	}
	if c, ok := byKey["chaos-canary"]; !ok || c.attempts != 2 {
		t.Errorf("canary outcome %+v: the staged mid-solve kill must cost it exactly one retry", byKey["chaos-canary"])
	}
	if affected == 0 {
		t.Error("no job was affected by the crash")
	}
	if rq := rt.met.requeued.Load(); rq < 1 {
		t.Errorf("router requeued counter %d; the crash must have forced at least one resubmission", rq)
	}
	t.Logf("chaos: %d jobs converged, %d affected by the crash (all retried exactly once), requeued=%d failovers=%d",
		len(byKey), affected, rt.met.requeued.Load(), rt.met.failovers.Load())

	// The dead shard's jobs were cancelled, not leaked: nothing queued or
	// running survives in its manager.
	if q, r := servers[victim].Jobs.QueueDepth(), servers[victim].Jobs.InFlight(); q != 0 || r != 0 {
		t.Errorf("killed shard still holds work: %d queued, %d running", q, r)
	}

	// Teardown: drain the survivors, close the router and its front server,
	// then require the goroutine count back at baseline — the crash and the
	// failovers leaked nothing.
	tr.CloseIdleConnections()
	for _, name := range names {
		if name == victim {
			continue
		}
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := servers[name].Drain(dctx); err != nil {
			t.Errorf("drain %s: %v", name, err)
		}
		cancel()
	}
	frontSrv.Close()
	rt.Close()
	tr.CloseIdleConnections()

	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseGoroutines {
			break
		}
		if time.Now().After(leakDeadline) {
			var sb strings.Builder
			pprof.Lookup("goroutine").WriteTo(&sb, 1)
			t.Fatalf("goroutine leak after chaos: %d > baseline %d\n%s", runtime.NumGoroutine(), baseGoroutines, sb.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
