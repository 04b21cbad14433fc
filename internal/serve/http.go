package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/workload"
)

// routes mounts the HTTP API:
//
//	POST /v1/solve            submit and wait; ?stream=1 streams NDJSON events
//	POST /v1/jobs             submit asynchronously → 202 {"id": ...}
//	GET  /v1/jobs             list retained jobs
//	GET  /v1/jobs/{id}        job status
//	GET  /v1/jobs/{id}/events NDJSON event stream (replay + live)
//	POST /v1/jobs/{id}/cancel cancel a queued or running job
//	GET  /v1/matrices         registry listing (residents + uploads)
//	PUT  /v1/matrices/{name}  upload a MatrixMarket body (plain or gzip)
//	GET  /healthz             liveness; 503 while draining
//	GET  /metrics             Prometheus text format
//	GET  /debug/pprof/...     runtime profiles, only when Config.EnablePprof
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /v1/matrices", s.handleMatrices)
	s.mux.HandleFunc("PUT /v1/matrices/{name}", s.handleUpload)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("GET /v1/tuner", s.handleTuner)
	s.mux.HandleFunc("GET /v1/debug/flight", s.handleFlight)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		// net/http/pprof self-registers only on http.DefaultServeMux; the
		// daemon uses its own mux, so the handlers are mounted explicitly —
		// and only when the operator opted in.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// apiError is the JSON error envelope.
func apiError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// MaxSolveBodyBytes caps the JSON body of a solve submission, on a shard and
// on the router alike: a body the router refuses must not be accepted by a
// directly addressed solverd. (Operator uploads have their own, larger cap.)
const MaxSolveBodyBytes = 16 << 20

// BodyErrorStatus maps a failure to read or decode a request body onto its
// status: 413 when the body ran past its http.MaxBytesReader cap, 400
// otherwise.
func BodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// submit decodes a SolveRequest and applies admission control, translating
// the manager's typed errors into 400 (outside the request limits), 429 +
// Retry-After (queue full) and 503 (draining).
func (s *Server) submit(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	var req SolveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSolveBodyBytes)).Decode(&req); err != nil {
		apiError(w, BodyErrorStatus(err), "bad request body: %v", err)
		return nil, false
	}
	if req.Problem == "" {
		apiError(w, http.StatusBadRequest, "missing \"problem\"")
		return nil, false
	}
	// A traceparent request header is the W3C spelling of the body field;
	// the body wins when both are present (the router pins the per-attempt
	// context there).
	if req.TraceParent == "" {
		req.TraceParent = r.Header.Get("traceparent")
	}
	j, err := s.Jobs.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Retry after roughly one queued job's drain time; 1s floor keeps
		// clients from hammering.
		w.Header().Set("Retry-After", retryAfterSeconds(time.Second))
		apiError(w, http.StatusTooManyRequests, "%v", err)
		return nil, false
	case errors.Is(err, ErrDraining):
		apiError(w, http.StatusServiceUnavailable, "%v", err)
		return nil, false
	case errors.Is(err, ErrInvalidRequest):
		apiError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	case err != nil:
		apiError(w, http.StatusInternalServerError, "%v", err)
		return nil, false
	}
	return j, true
}

// handleSolve is the synchronous path: submit, then either stream every
// event (chunked NDJSON, flushed per event) or block until the terminal
// result and return it as one JSON object.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	j, ok := s.submit(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("stream") != "" {
		s.streamJob(w, r, j)
		return
	}
	select {
	case <-j.Done():
	case <-r.Context().Done():
		// Client went away: the job keeps running (it is accepted work),
		// the response is abandoned.
		return
	}
	writeJSON(w, http.StatusOK, s.jobStatus(j, true))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	j, ok := s.submit(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.ID, "state": string(j.State())})
}

// JobStatus is the query-side view of a job.
type JobStatus struct {
	ID         string       `json:"id"`
	State      JobState     `json:"state"`
	Request    SolveRequest `json:"request"`
	Method     string       `json:"method,omitempty"`
	Converged  bool         `json:"converged"`
	Iterations int          `json:"iterations,omitempty"`
	// RelRes passes through saneRel like every event field: a non-finite
	// final residual is reported as Diverged with RelRes omitted, keeping
	// the status endpoint encodable for every terminal state.
	RelRes   float64   `json:"relres,omitempty"`
	Diverged bool      `json:"diverged,omitempty"`
	Error    string    `json:"error,omitempty"`
	XHash    string    `json:"x_hash,omitempty"`
	X        []float64 `json:"x,omitempty"`
	Counters any       `json:"counters,omitempty"`
	// BatchWidth is how many jobs the solve was coalesced with (itself
	// included) when the manager ran it as a block solve; omitted for solo
	// solves and jobs still queued.
	BatchWidth int `json:"batch_width,omitempty"`
	// TraceID is the distributed trace the job belongs to (joined from the
	// client's traceparent, or originated by this daemon).
	TraceID string `json:"trace_id,omitempty"`
}

func (s *Server) jobStatus(j *Job, includeCounters bool) JobStatus {
	st := JobStatus{ID: j.ID, State: j.State(), Request: j.Req, TraceID: j.TraceID()}
	if w := j.BatchWidth(); w > 1 {
		st.BatchWidth = w
	}
	res, err := j.Result()
	if res != nil {
		st.Method = res.Method
		st.Converged = res.Converged
		st.Iterations = res.Iterations
		st.RelRes, st.Diverged = saneRel(res.RelRes)
		st.Diverged = st.Diverged || res.Diverged
		st.XHash = j.XHash()
		if j.Req.IncludeX {
			st.X = res.X
		}
	}
	if err != nil {
		st.Error = err.Error()
	}
	if includeCounters {
		c := j.Counters()
		st.Counters = &c
	}
	return st
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs.List()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, s.jobStatus(j, false))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) *Job {
	j := s.Jobs.Get(r.PathValue("id"))
	if j == nil {
		apiError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	return j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFromPath(w, r); j != nil {
		writeJSON(w, http.StatusOK, s.jobStatus(j, true))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFromPath(w, r); j != nil {
		j.Cancel()
		writeJSON(w, http.StatusOK, map[string]string{"id": j.ID, "state": string(j.State())})
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFromPath(w, r); j != nil {
		s.streamJob(w, r, j)
	}
}

// streamJob writes the job's events as chunked NDJSON — one JSON object per
// line, flushed per event — until the terminal result event (the last line)
// or client disconnect.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	events, cancel := j.Subscribe()
	defer cancel()
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// MatricesResponse lists the registry state.
type MatricesResponse struct {
	Builtin  []string       `json:"builtin"`
	Uploads  []string       `json:"uploads"`
	Resident []EntrySummary `json:"resident"`
}

func (s *Server) handleMatrices(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, MatricesResponse{
		Builtin:  workload.Names,
		Uploads:  s.Registry.Uploads(),
		Resident: s.Registry.Summaries(),
	})
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rows, nnz, err := s.Registry.RegisterUpload(name, http.MaxBytesReader(w, r.Body, 1<<30))
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"name": name, "n": rows, "nnz": nnz})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	code := http.StatusOK
	status := "ok"
	if s.Jobs.Draining() {
		code, status = http.StatusServiceUnavailable, "draining"
	}
	body := map[string]any{
		"status":   status,
		"queued":   s.Jobs.QueueDepth(),
		"inflight": s.Jobs.InFlight(),
	}
	if s.cfg.ShardID != "" {
		body["shard"] = s.cfg.ShardID
	}
	writeJSON(w, code, body)
}

// ClusterInfo is one shard's view of cluster membership: its own identity
// plus the registered peers. A router bootstrapping with -discover reads
// this from any one shard to learn the full shard set.
type ClusterInfo struct {
	Shard string            `json:"shard,omitempty"`
	Peers map[string]string `json:"peers,omitempty"`
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ClusterInfo{Shard: s.cfg.ShardID, Peers: s.cfg.Peers})
}

// handleTuner exposes the stability tuner's state: every operator
// fingerprint with its recorded best configuration and the evidence that
// produced it. Empty until an auto job has finished.
func (s *Server) handleTuner(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs.Tuner().Snapshot())
}

// handleFlight dumps the flight recorder: recent completed job traces
// (spans + per-rank summaries) and structured events, oldest first.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs.Flight().Dump())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.Metrics.WritePrometheus(w, s.Jobs, s.Registry)
}
