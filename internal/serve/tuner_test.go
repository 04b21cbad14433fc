package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/krylov"
	"repro/internal/workload"
)

// TestTunerSwitchesDriftingOperatorAndWarmStarts is the tentpole acceptance
// test: on an operator where the cold-start pipelined s-step method loses the
// true residual (ecology2/16 at s=6 breaks down far above a 1e-9 tolerance),
// the first auto job fails, the tuner records a residual-replacement
// configuration for the fingerprint, and the SECOND auto job warm-starts from
// that record and converges — method, s and cadence all selected by the
// service, visible on the event stream and the /v1/tuner plane.
func TestTunerSwitchesDriftingOperatorAndWarmStarts(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drainServer(t, s)

	req := SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "ecology2", Scale: 16},
		Method:      MethodAuto,
		S:           6,
		RelTol:      1e-9,
		MaxIter:     2000,
	}

	// Job 1: cold start. The tuner runs the paper's headline method at the
	// request's s; on this operator it cannot reach the tolerance.
	j1, err := s.Jobs.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done()
	if st := j1.State(); st != JobFailed {
		t.Fatalf("cold-start job state = %s, want %s (the unstable config must fail here)", st, JobFailed)
	}
	start1, res1 := tunerEvents(t, j1)
	if start1.TunedMethod != tunerColdStartMethod || start1.TunerWarmStart {
		t.Fatalf("cold start event: tuned=%q warm=%v, want %q/false",
			start1.TunedMethod, start1.TunerWarmStart, tunerColdStartMethod)
	}
	if res1.TunedMethod != tunerColdStartMethod {
		t.Fatalf("cold result event: tuned=%q, want %q", res1.TunedMethod, tunerColdStartMethod)
	}

	// The failure must have written a residual-replacement record for the
	// operator fingerprint.
	fp := tuneFingerprint(req.withDefaults())
	rec, ok := s.Jobs.Tuner().Snapshot()[fp]
	if !ok {
		t.Fatalf("no tuner record for fingerprint %q after the failed job", fp)
	}
	if rec.Method != tunerStableMethod || !rec.Switched {
		t.Fatalf("record after failure = %+v, want a switch to %q", rec, tunerStableMethod)
	}
	if rec.S != 1 || rec.ReplaceEvery != krylov.DefaultReplaceEvery {
		t.Fatalf("switch recorded {s=%d, rr=%d}, want {s=1, rr=%d}", rec.S, rec.ReplaceEvery, krylov.DefaultReplaceEvery)
	}

	// Job 2: same fingerprint. Warm-starts onto the recorded replacement
	// config and converges.
	j2, err := s.Jobs.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	if st := j2.State(); st != JobConverged {
		res, jerr := j2.Result()
		t.Fatalf("warm-started job state = %s (res=%+v err=%v), want %s", st, res, jerr, JobConverged)
	}
	start2, res2 := tunerEvents(t, j2)
	if start2.TunedMethod != tunerStableMethod || !start2.TunerWarmStart {
		t.Fatalf("warm start event: tuned=%q warm=%v, want %q/true",
			start2.TunedMethod, start2.TunerWarmStart, tunerStableMethod)
	}
	if res2.Method != tunerStableMethod {
		t.Fatalf("result method = %q, want the tuner's %q", res2.Method, tunerStableMethod)
	}
	if got := j2.Counters().ResidualReplacements; got == 0 {
		t.Fatal("warm-started replacement solve recorded zero residual replacements")
	}

	// The clean run confirms the record; the fingerprint survives with the
	// same configuration.
	rec2 := s.Jobs.Tuner().Snapshot()[fp]
	if rec2.Method != tunerStableMethod || rec2.Switched {
		t.Fatalf("record after warm-started success = %+v, want an unswitched confirmation of %q",
			rec2, tunerStableMethod)
	}
	if rec2.Jobs < 2 {
		t.Fatalf("record job count = %d, want >= 2", rec2.Jobs)
	}

	// Ledger: one switch, one warm start, two recorded outcomes.
	if got := s.Metrics.tunerSwitches.Load(); got != 1 {
		t.Fatalf("tunerSwitches = %d, want 1", got)
	}
	if got := s.Metrics.tunerWarmstarts.Load(); got != 1 {
		t.Fatalf("tunerWarmstarts = %d, want 1", got)
	}
	if got := s.Metrics.tunerRecords.Load(); got != 2 {
		t.Fatalf("tunerRecords = %d, want 2", got)
	}

	// GET /v1/tuner exposes the record.
	resp, err := http.Get(ts.URL + "/v1/tuner")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire map[string]TunerRecord
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wrec, ok := wire[fp]; !ok || wrec.Method != tunerStableMethod {
		t.Fatalf("/v1/tuner = %v, want record for %q with method %q", wire, fp, tunerStableMethod)
	}
}

// tunerEvents returns a finished job's start and result events.
func tunerEvents(t *testing.T, j *Job) (start, result Event) {
	t.Helper()
	events, cancel := j.Subscribe()
	defer cancel()
	var sawStart, sawResult bool
	for ev := range events {
		switch ev.Type {
		case "start":
			start, sawStart = ev, true
		case "result":
			result, sawResult = ev, true
		}
	}
	if !sawStart || !sawResult {
		t.Fatalf("job %s stream missing start/result (start=%v result=%v)", j.ID, sawStart, sawResult)
	}
	return start, result
}

// TestTunerDecisionRules pins the selector's decision table without running
// solves: drift past the limit switches even a converged run; a failing
// replacement config tightens its cadence down to the floor; a healthy run
// whose overlap hid nothing halves s; a healthy run confirms.
func TestTunerDecisionRules(t *testing.T) {
	conv := &krylov.Result{Converged: true}
	fail := &krylov.Result{}

	cases := []struct {
		name   string
		dec    tuneDecision
		res    *krylov.Result
		drift  float64
		hidden float64
		want   TunerRecord
	}{
		{
			name:  "converged but drifted past the limit switches",
			dec:   tuneDecision{fp: "a", Method: tunerColdStartMethod, S: 6},
			res:   conv,
			drift: workload.DriftLimit * 4, hidden: 0.8,
			want: TunerRecord{Method: tunerStableMethod, S: 1, ReplaceEvery: krylov.DefaultReplaceEvery, Switched: true},
		},
		{
			name: "failing replacement config halves its cadence",
			dec:  tuneDecision{fp: "b", Method: tunerStableMethod, S: 1, ReplaceEvery: 24},
			res:  fail, drift: 0, hidden: 0.8,
			want: TunerRecord{Method: tunerStableMethod, S: 1, ReplaceEvery: 12, Switched: true},
		},
		{
			name: "cadence tightening bottoms out at the floor",
			dec:  tuneDecision{fp: "c", Method: tunerStableMethod, S: 1, ReplaceEvery: tunerMinCadence},
			res:  fail, drift: 0, hidden: 0.8,
			want: TunerRecord{Method: tunerStableMethod, S: 1, ReplaceEvery: tunerMinCadence, Switched: true},
		},
		{
			name: "default-cadence replacement failure tightens from the default",
			dec:  tuneDecision{fp: "d", Method: tunerStableMethod, S: 1},
			res:  fail, drift: 0, hidden: 0.8,
			want: TunerRecord{Method: tunerStableMethod, S: 1, ReplaceEvery: krylov.DefaultReplaceEvery / 2, Switched: true},
		},
		{
			name: "healthy run with nothing hidden halves s",
			dec:  tuneDecision{fp: "e", Method: tunerColdStartMethod, S: 4},
			res:  conv, drift: 1.5, hidden: 0.01,
			want: TunerRecord{Method: tunerColdStartMethod, S: 2, Switched: true},
		},
		{
			name: "healthy run with unmeasured overlap confirms",
			dec:  tuneDecision{fp: "f", Method: tunerColdStartMethod, S: 4},
			res:  conv, drift: 1.5, hidden: -1,
			want: TunerRecord{Method: tunerColdStartMethod, S: 4},
		},
		{
			name: "healthy run confirms as-is",
			dec:  tuneDecision{fp: "g", Method: tunerStableMethod, S: 1, ReplaceEvery: 12},
			res:  conv, drift: 2, hidden: 0.6,
			want: TunerRecord{Method: tunerStableMethod, S: 1, ReplaceEvery: 12},
		},
	}

	tu := NewTuner(NewMetrics())
	for _, tc := range cases {
		tu.Record(&tc.dec, tc.res, tc.drift, tc.hidden)
		got := tu.Snapshot()[tc.dec.fp]
		if got.Method != tc.want.Method || got.S != tc.want.S ||
			got.ReplaceEvery != tc.want.ReplaceEvery || got.Switched != tc.want.Switched {
			t.Errorf("%s: got {m=%s s=%d rr=%d sw=%v}, want {m=%s s=%d rr=%d sw=%v}", tc.name,
				got.Method, got.S, got.ReplaceEvery, got.Switched,
				tc.want.Method, tc.want.S, tc.want.ReplaceEvery, tc.want.Switched)
		}
	}
}

// TestTunerEvictsLeastRecentlyUsed: the fingerprint is partly client input,
// so the tuner keeps at most tunerCap of them. After tunerCap+k distinct
// records the k least recently used are gone and the newest still
// warm-starts; the oldest, touched by a warm start, outlives later ones.
func TestTunerEvictsLeastRecentlyUsed(t *testing.T) {
	const k = 3
	tu := NewTuner(NewMetrics())
	req := func(i int) SolveRequest {
		return SolveRequest{ProblemSpec: ProblemSpec{Problem: "poisson7", N: 8}, RelTol: float64(i+1) * 1e-12}
	}
	conv := &krylov.Result{Converged: true}
	for i := 0; i < tunerCap+k; i++ {
		if i == tunerCap {
			tu.Resolve(req(0)) // a warm start refreshes the oldest fingerprint
		}
		tu.Record(tu.Resolve(req(i)), conv, 1, 0.5)
	}
	if got := tu.Len(); got != tunerCap {
		t.Fatalf("Len() = %d after %d distinct records, want the cap %d", got, tunerCap+k, tunerCap)
	}
	if !tu.Resolve(req(tunerCap + k - 1)).WarmStart {
		t.Fatal("the newest fingerprint must still warm-start")
	}
	if !tu.Resolve(req(0)).WarmStart {
		t.Fatal("a fingerprint refreshed by a warm start must outlive later records")
	}
	for i := 1; i <= k+1; i++ {
		if warm := tu.Resolve(req(i)).WarmStart; warm != (i == k+1) {
			t.Fatalf("fingerprint %d: warm start %v, want only the %d least recently used evicted", i, warm, k)
		}
	}
}

// TestAutoTuneDefaultConfig: with Config.AutoTuneDefault set, an empty-method
// request runs under the tuner instead of the ladder; an explicit method
// still wins.
func TestAutoTuneDefaultConfig(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8, AutoTuneDefault: true})
	defer drainServer(t, s)

	j, err := s.Jobs.Submit(SolveRequest{ProblemSpec: ProblemSpec{Problem: "poisson7", N: 5}})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.Req.Method != MethodAuto {
		t.Fatalf("empty method became %q, want %q", j.Req.Method, MethodAuto)
	}
	if j.State() != JobConverged {
		t.Fatalf("auto-default job state = %s, want %s", j.State(), JobConverged)
	}
	start, _ := tunerEvents(t, j)
	if start.TunedMethod == "" {
		t.Fatal("auto-default job carries no tuner selection on its start event")
	}

	exp, err := s.Jobs.Submit(SolveRequest{ProblemSpec: ProblemSpec{Problem: "poisson7", N: 5}, Method: "pcg"})
	if err != nil {
		t.Fatal(err)
	}
	<-exp.Done()
	if exp.Req.Method != "pcg" {
		t.Fatalf("explicit method rewritten to %q", exp.Req.Method)
	}
}

// TestAutoJobsDoNotCoalesce: auto jobs are resolved per job at run time, so
// they must never share a block solve even when otherwise compatible.
func TestAutoJobsDoNotCoalesce(t *testing.T) {
	r := SolveRequest{ProblemSpec: ProblemSpec{Problem: "poisson7", N: 5}, Method: MethodAuto}.withDefaults()
	if coalescible(r) {
		t.Fatal("auto request reported coalescible")
	}
	r.Method = "pcg"
	if !coalescible(r) {
		t.Fatal("explicit single-rank request must stay coalescible")
	}
	// The cadence is part of the coalesce key: two jobs with different
	// replacement cadences must not share one solver loop.
	a, b := r, r
	a.ReplaceEvery, b.ReplaceEvery = 0, 24
	if coalesceKey(a) == coalesceKey(b) {
		t.Fatal("replacement cadence missing from the coalesce key")
	}
}
