package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/serve"
)

var (
	promName    = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promSample  = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)$`)
	promComment = regexp.MustCompile(`^# (HELP|TYPE) (\S+)(?: (.*))?$`)
)

// lintPrometheus is the strict reading of text format 0.0.4 a validating
// parser applies: every comment line is a HELP or TYPE on a valid metric
// name, a family is typed at most once and before its first sample, and
// every sample resolves to a typed family — directly, or through a histogram
// family's _bucket/_sum/_count suffixes.
func lintPrometheus(text string) error {
	types := map[string]string{}
	seen := map[string]bool{} // families with at least one sample
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("line %d %q: %s", i+1, line, fmt.Sprintf(format, args...))
		}
		if strings.HasPrefix(line, "#") {
			m := promComment.FindStringSubmatch(line)
			if m == nil {
				return fail("comment is neither HELP nor TYPE")
			}
			kind, name, rest := m[1], m[2], m[3]
			if !promName.MatchString(name) {
				return fail("invalid metric name %q", name)
			}
			if seen[name] {
				return fail("%s after the family's first sample", kind)
			}
			if kind == "TYPE" {
				if _, dup := types[name]; dup {
					return fail("family typed twice")
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fail("unknown type %q", rest)
				}
				types[name] = rest
			}
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			return fail("not a sample line")
		}
		family := m[1]
		if _, ok := types[family]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(family, suffix); base != family && types[base] == "histogram" {
					family = base
				}
			}
		}
		if _, ok := types[family]; !ok {
			return fail("sample of a family with no TYPE before it")
		}
		seen[family] = true
	}
	return nil
}

func TestLintPrometheusRejects(t *testing.T) {
	for name, text := range map[string]string{
		"wildcard help":  "# HELP solverd_kernel_* Aggregate.\n",
		"untyped sample": "# TYPE a counter\na 1\nb 2\n",
		"late type":      "a 1\n# TYPE a counter\n",
		"bare suffix":    "# TYPE a counter\na_sum 1\n",
		"free comment":   "# just a remark\n",
	} {
		if err := lintPrometheus(text); err == nil {
			t.Errorf("%s: lint accepted %q", name, text)
		}
	}
	ok := "# HELP h Latency.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 0.5\nh_count 1\n# TYPE g gauge\ng{shard=\"a\"} 2\n"
	if err := lintPrometheus(ok); err != nil {
		t.Errorf("lint rejected a valid scrape: %v", err)
	}
}

// TestMetricsStrictTextFormat scrapes a live solverd shard (over its socket,
// after a multi-rank job so the skew, phase and kernel families all carry
// samples) and a live router in front of it, and holds both scrapes to the
// strict text-format reading.
func TestMetricsStrictTextFormat(t *testing.T) {
	_, url := startShard(t, "s0")
	rt, err := NewRouter(RouterConfig{
		Shards: []ShardConfig{{Name: "s0", URL: url}}, ProbeInterval: -1, Retry: fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	w := postSolve(t, rt.Handler(), serve.SolveRequest{
		ProblemSpec: serve.ProblemSpec{Problem: "poisson7", N: 8},
		Method:      "pipe-pscg", PC: "jacobi", Ranks: 2,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("solve via router: status %d: %s", w.Code, w.Body.String())
	}

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	shard, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	rw := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/metrics", nil))

	for name, text := range map[string]string{"solverd": string(shard), "router": rw.Body.String()} {
		if err := lintPrometheus(text); err != nil {
			t.Errorf("%s /metrics: %v", name, err)
		}
	}
	for _, want := range []string{
		"# TYPE solverd_kernel_spmv counter\n",
		"# TYPE solverd_registry_misses_total counter\n",
		"# TYPE solverd_overlap_wait_seconds_total counter\n",
		"solverd_rank_skew{rank=\"1\"}",
	} {
		if !strings.Contains(string(shard), want) {
			t.Errorf("solverd /metrics missing %q", want)
		}
	}
}
