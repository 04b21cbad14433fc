package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/krylov"
	"repro/internal/workload"
)

// TestSolveRequestLimits: a request past a limit is refused with 400 naming
// the limit, before the registry builds anything; one at a limit is taken.
func TestSolveRequestLimits(t *testing.T) {
	spec := func(problem string, n int) ProblemSpec { return ProblemSpec{Problem: problem, N: n} }
	for _, c := range []struct {
		name  string
		req   SolveRequest
		limit string // "" = accepted
	}{
		{"defaults", SolveRequest{ProblemSpec: spec("poisson125", 0)}, ""},
		{"poisson125 at the rows limit", SolveRequest{ProblemSpec: spec("poisson125", 256)}, ""},
		{"poisson125 n=257", SolveRequest{ProblemSpec: spec("poisson125", 257)}, "MaxGridRows"},
		{"poisson125 n=1000", SolveRequest{ProblemSpec: spec("poisson125", 1000)}, "MaxGridRows"},
		{"poisson7 n=257", SolveRequest{ProblemSpec: spec("poisson7", 257)}, "MaxGridRows"},
		{"poisson7 n overflowing n³", SolveRequest{ProblemSpec: spec("poisson7", 1<<40)}, "MaxGridRows"},
		{"poisson5 at the rows limit", SolveRequest{ProblemSpec: spec("poisson5", 4096)}, ""},
		{"poisson5 n=4097", SolveRequest{ProblemSpec: spec("poisson5", 4097)}, "MaxGridRows"},
		{"stand-in ignores n", SolveRequest{ProblemSpec: spec("thermal2", 1<<20)}, ""},
		{"s at the limit", SolveRequest{ProblemSpec: spec("poisson7", 8), S: MaxS}, ""},
		{"s=17", SolveRequest{ProblemSpec: spec("poisson7", 8), S: MaxS + 1}, "MaxS"},
		{"ranks at the limit", SolveRequest{ProblemSpec: spec("poisson7", 8), Ranks: MaxRanks}, ""},
		{"ranks=65", SolveRequest{ProblemSpec: spec("poisson7", 8), Ranks: MaxRanks + 1}, "MaxRanks"},
		{"maxiter at the limit", SolveRequest{ProblemSpec: spec("poisson7", 8), MaxIter: MaxIterLimit}, ""},
		{"maxiter past the limit", SolveRequest{ProblemSpec: spec("poisson7", 8), MaxIter: MaxIterLimit + 1}, "MaxIterLimit"},
		{"negative maxiter takes the default", SolveRequest{ProblemSpec: spec("poisson7", 8), MaxIter: -1}, ""},
		{"timeout_ms at the limit", SolveRequest{ProblemSpec: spec("poisson7", 8), TimeoutMS: MaxTimeoutMS}, ""},
		{"timeout_ms past the limit", SolveRequest{ProblemSpec: spec("poisson7", 8), TimeoutMS: MaxTimeoutMS + 1}, "MaxTimeoutMS"},
		{"timeout_ms wrapping a Duration", SolveRequest{ProblemSpec: spec("poisson7", 8), TimeoutMS: 10_000_000_000_000}, "MaxTimeoutMS"},
		{"method auto", SolveRequest{ProblemSpec: spec("poisson7", 8), Method: MethodAuto}, ""},
		{"method ladder", SolveRequest{ProblemSpec: spec("poisson7", 8), Method: "ladder"}, ""},
		{"unknown method", SolveRequest{ProblemSpec: spec("poisson7", 8), Method: "nosuch"}, "unknown method"},
		{"pc none", SolveRequest{ProblemSpec: spec("poisson7", 8), PC: "none"}, ""},
		{"pc gamg", SolveRequest{ProblemSpec: spec("poisson7", 8), PC: "gamg"}, ""},
		{"unknown pc", SolveRequest{ProblemSpec: spec("poisson7", 8), PC: "nosuch"}, "unknown preconditioner"},
	} {
		err := c.req.withDefaults().validate()
		switch {
		case c.limit == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.limit != "" && (!errors.Is(err, ErrInvalidRequest) || !strings.Contains(err.Error(), c.limit)):
			t.Errorf("%s: error %v, want ErrInvalidRequest naming %s", c.name, err, c.limit)
		}
	}

	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	for _, c := range []struct {
		req  SolveRequest
		name string // what the 400 body names
	}{
		{SolveRequest{ProblemSpec: spec("poisson125", 1000), Method: "pcg"}, "MaxGridRows"},
		{SolveRequest{ProblemSpec: spec("poisson7", 8), Method: "pipe-pscg", S: 64}, "MaxS"},
		{SolveRequest{ProblemSpec: spec("poisson7", 8), Method: "pcg", Ranks: 1000}, "MaxRanks"},
		{SolveRequest{ProblemSpec: spec("poisson7", 8), Method: "pcg", MaxIter: 1 << 40}, "MaxIterLimit"},
		{SolveRequest{ProblemSpec: spec("poisson7", 8), Method: "pcg", TimeoutMS: 10_000_000_000_000}, "MaxTimeoutMS"},
		{SolveRequest{ProblemSpec: spec("poisson125", 48), Method: "nosuch"}, `unknown method \"nosuch\"`},
		{SolveRequest{ProblemSpec: spec("poisson125", 48), PC: "nosuch"}, `unknown preconditioner \"nosuch\"`},
	} {
		for _, path := range []string{"/v1/solve", "/v1/jobs"} {
			resp := postJSON(t, ts.URL+path, c.req)
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), c.name) {
				t.Errorf("%s %+v: status %d %s, want 400 naming %s", path, c.req, resp.StatusCode, body, c.name)
			}
		}
	}
	if n := s.Registry.Len(); n != 0 {
		t.Fatalf("refused requests built %d registry entries", n)
	}
	mr := mustGet(t, ts.URL+"/metrics")
	metrics, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(metrics), "\nsolverd_registry_misses_total 0\n") {
		t.Fatalf("refused requests reached the registry:\n%s", metrics)
	}
}

// FuzzSolveRequest decodes a body the way submit does, applies the defaults
// and validates: no input panics, and an accepted request is within the
// limits, maxiter and timeout_ms included, and names a method the registry
// resolves (or "auto") and a preconditioner workload.PC builds. `go test` runs the committed corpus (testdata/fuzz); `make fuzz`
// explores beyond it.
func FuzzSolveRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SolveRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		req = req.withDefaults()
		if req.validate() != nil {
			return
		}
		maxN := map[string]int{"poisson125": 256, "poisson7": 256, "poisson5": 4096}
		if m, ok := maxN[req.Problem]; ok && req.normalized().N > m {
			t.Fatalf("%s: accepted %s n=%d (max %d)", body, req.Problem, req.normalized().N, m)
		}
		if req.S < 1 || req.S > MaxS || req.Ranks < 1 || req.Ranks > MaxRanks ||
			req.MaxIter < 1 || req.MaxIter > MaxIterLimit || req.TimeoutMS > MaxTimeoutMS {
			t.Fatalf("%s: accepted s=%d ranks=%d maxiter=%d timeout_ms=%d",
				body, req.S, req.Ranks, req.MaxIter, req.TimeoutMS)
		}
		if _, err := krylov.MethodByName(req.Method); err != nil && req.Method != MethodAuto {
			t.Fatalf("%s: accepted method %q", body, req.Method)
		}
		if _, err := workload.PC(req.PC, workload.Poisson7(2)); err != nil {
			t.Fatalf("%s: accepted pc %q: %v", body, req.PC, err)
		}
	})
}
