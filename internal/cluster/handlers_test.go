package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/serve"
)

const tinyMM = `%%MatrixMarket matrix coordinate real symmetric
3 3 4
1 1 4.0
2 2 4.0
3 3 4.0
2 1 -1.0
`

// deadURL is a shard address nothing listens on: connection refused.
func deadURL(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + l.Addr().String()
	l.Close()
	return url
}

// serveRouter sends one request through the router's handler.
func serveRouter(rt *Router, method, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w
}

// nameWithPrimary finds a matrix name whose replica set starts with primary.
func nameWithPrimary(t *testing.T, rt *Router, primary string) (string, []string) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("m%d", i)
		if reps := rt.Replicas(serve.ProblemSpec{Problem: name}.Key()); reps[0] == primary {
			return name, reps
		}
	}
	t.Fatalf("no name maps to primary %s", primary)
	return "", nil
}

// TestRouterUploadReplicates: an upload lands on the name's primary and its
// replica and lists both; a matrix the primary rejects is relayed as the
// primary's answer and stored nowhere; /v1/matrices shows each shard's
// registry.
func TestRouterUploadReplicates(t *testing.T) {
	servers := map[string]*serve.Server{}
	var shards []ShardConfig
	for _, name := range []string{"s0", "s1", "s2"} {
		s, url := startShard(t, name)
		servers[name] = s
		shards = append(shards, ShardConfig{Name: name, URL: url})
	}
	rt, err := NewRouter(RouterConfig{Shards: shards, ProbeInterval: -1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	w := serveRouter(rt, http.MethodPut, "/v1/matrices/tiny", tinyMM)
	if w.Code != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", w.Code, w.Body.String())
	}
	var up struct {
		Name     string   `json:"name"`
		N        int      `json:"n"`
		Replicas []string `json:"replicas"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &up); err != nil {
		t.Fatal(err)
	}
	want := rt.Replicas(serve.ProblemSpec{Problem: "tiny"}.Key())
	if up.Name != "tiny" || up.N != 3 || !slices.Equal(up.Replicas, want) {
		t.Fatalf("upload answer %+v, want name tiny, n 3, replicas %v", up, want)
	}
	for name, s := range servers {
		if has := slices.Contains(s.Registry.Uploads(), "tiny"); has != slices.Contains(want, name) {
			t.Fatalf("shard %s holds the upload: %v, replica set %v", name, has, want)
		}
	}
	if got := rt.met.uploadRepl.Load(); got != int64(len(want)) {
		t.Fatalf("uploadRepl = %d, want %d", got, len(want))
	}

	w = serveRouter(rt, http.MethodPut, "/v1/matrices/bad", "not a matrix")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("rejected upload: status %d, want the primary's 400", w.Code)
	}
	for name, s := range servers {
		if slices.Contains(s.Registry.Uploads(), "bad") {
			t.Fatalf("shard %s stored a rejected matrix", name)
		}
	}

	w = serveRouter(rt, http.MethodGet, "/v1/matrices", "")
	var listing map[string]serve.MatricesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &listing); err != nil || w.Code != http.StatusOK {
		t.Fatalf("matrices: status %d, %v: %s", w.Code, err, w.Body.String())
	}
	if len(listing) != len(servers) {
		t.Fatalf("matrices lists %d shards, want %d", len(listing), len(servers))
	}
	for name, m := range listing {
		if slices.Contains(m.Uploads, "tiny") != slices.Contains(want, name) {
			t.Fatalf("shard %s lists uploads %v, replica set %v", name, m.Uploads, want)
		}
	}
}

// TestRouterUploadUnreachable: a dead primary fails the upload with 502; a
// dead secondary only shortens the replicas list.
func TestRouterUploadUnreachable(t *testing.T) {
	_, liveURL := startShard(t, "live")
	rt, err := NewRouter(RouterConfig{
		Shards:        []ShardConfig{{Name: "dead", URL: deadURL(t)}, {Name: "live", URL: liveURL}},
		ProbeInterval: -1, Retry: fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	name, _ := nameWithPrimary(t, rt, "dead")
	if w := serveRouter(rt, http.MethodPut, "/v1/matrices/"+name, tinyMM); w.Code != http.StatusBadGateway {
		t.Fatalf("dead primary: status %d, want 502: %s", w.Code, w.Body.String())
	}
	name, _ = nameWithPrimary(t, rt, "live")
	w := serveRouter(rt, http.MethodPut, "/v1/matrices/"+name, tinyMM)
	var up struct {
		Replicas []string `json:"replicas"`
	}
	json.Unmarshal(w.Body.Bytes(), &up)
	if w.Code != http.StatusCreated || !slices.Equal(up.Replicas, []string{"live"}) {
		t.Fatalf("dead secondary: status %d, replicas %v: %s", w.Code, up.Replicas, w.Body.String())
	}
}

// TestRouterJobsListSkipsDownShard: GET /v1/jobs concatenates every
// reachable shard's jobs and marks an unreachable one down; /v1/cluster
// reports the ring and every shard's state.
func TestRouterJobsListSkipsDownShard(t *testing.T) {
	shards := []ShardConfig{{Name: "dead", URL: deadURL(t)}}
	for _, name := range []string{"s0", "s1"} {
		s, url := startShard(t, name)
		shards = append(shards, ShardConfig{Name: name, URL: url})
		j, err := s.Jobs.Submit(serve.SolveRequest{ProblemSpec: serve.ProblemSpec{Problem: "poisson7", N: 5}})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
	}
	rt, err := NewRouter(RouterConfig{Shards: shards, ProbeInterval: -1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	w := serveRouter(rt, http.MethodGet, "/v1/jobs", "")
	var jobs []serve.JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &jobs); err != nil || w.Code != http.StatusOK {
		t.Fatalf("jobs: status %d, %v: %s", w.Code, err, w.Body.String())
	}
	var ids []string
	for _, j := range jobs {
		ids = append(ids, j.ID)
	}
	slices.Sort(ids)
	if !slices.Equal(ids, []string{"s0-job-1", "s1-job-1"}) {
		t.Fatalf("listed jobs %v, want one per live shard", ids)
	}

	w = serveRouter(rt, http.MethodGet, "/v1/cluster", "")
	var cl struct {
		Members  []string    `json:"members"`
		Replicas int         `json:"replicas"`
		Shards   []shardView `json:"shards"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &cl); err != nil || w.Code != http.StatusOK {
		t.Fatalf("cluster: status %d, %v: %s", w.Code, err, w.Body.String())
	}
	slices.Sort(cl.Members)
	if !slices.Equal(cl.Members, []string{"dead", "s0", "s1"}) || cl.Replicas != 2 || len(cl.Shards) != 3 {
		t.Fatalf("cluster view %+v", cl)
	}
	for _, v := range cl.Shards {
		if v.Up != (v.Name != "dead") {
			t.Fatalf("shard %s up=%v after the jobs fan-out", v.Name, v.Up)
		}
	}
}

// TestRouterStreamLostRetriesExhausted: when every attempt's upstream dies
// mid-stream, the committed stream ends in one router_error line.
func TestRouterStreamLostRetriesExhausted(t *testing.T) {
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"type":"start"}`+"\n")
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // drop the connection mid-stream
	}))
	defer dying.Close()
	rt, err := NewRouter(RouterConfig{
		Shards:        []ShardConfig{{Name: "a", URL: dying.URL}, {Name: "b", URL: dying.URL}},
		ProbeInterval: -1, Retry: fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	w := serveRouter(rt, http.MethodPost, "/v1/solve?stream=1", `{"problem":"poisson7","n":5}`)
	var last map[string]string
	starts := 0
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		last = nil
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if last["type"] == "start" {
			starts++
		}
	}
	if last["type"] != "router_error" || !strings.Contains(last["error"], "retries exhausted") {
		t.Fatalf("stream ended with %v, want a router_error", last)
	}
	attempts := fastRetry().MaxAttempts
	if starts != attempts || rt.met.retries.Load() != int64(attempts-1) || rt.met.requeued.Load() != 1 {
		t.Fatalf("starts=%d retries=%d requeued=%d over %d attempts",
			starts, rt.met.retries.Load(), rt.met.requeued.Load(), attempts)
	}
}
