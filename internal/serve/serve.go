// Package serve is the solver-as-a-service layer: a stdlib-only HTTP daemon
// that keeps operators (matrix + partition + preconditioner) resident across
// solves and executes jobs against them under admission control.
//
// The one-shot CLIs (cmd/pipescg, cmd/chaos) rebuild everything per run; the
// regime the paper's pipelined s-step methods target — solves issued
// continuously against long-lived operators, as in PIPELCG-style persistent
// solver contexts — needs the opposite: build once, solve many. The package
// owns four concerns:
//
//   - Registry: named problems (synth grids, MatrixMarket uploads — plain or
//     gzipped) built once, partitioned once, preconditioners set up once, in
//     an LRU cache with refcounts so in-flight jobs pin their operator.
//   - Manager: a bounded submission queue with admission control (reject
//     with 429 + Retry-After when full), a worker pool sized against the
//     process-wide kernel pool (internal/par), per-job timeouts/cancellation
//     wired into the solver's deadline-aware waits, and krylov.SolveLadder
//     as the default execution engine so faulty jobs degrade instead of
//     failing.
//   - Streaming + metrics: per-job progress as chunked NDJSON events
//     (iteration, relres, recovery ledger), /healthz, and /metrics in
//     Prometheus text format (trace.Counters aggregates, queue depth,
//     in-flight jobs, cache hits/evictions, request latency histogram).
//   - Graceful drain: SIGTERM (handled by cmd/solverd) stops admissions,
//     finishes or cancels in-flight jobs against a deadline, and flushes
//     final metrics.
//
// Numerics are untouched: a job executed through the daemon is assembled by
// the same functions as the CLI path — internal/workload's catalogue and
// preconditioner table, and for ranks>1 its SPMD driver — and produces a
// bit-identical iterate (asserted by TestServeBitIdentical). The package
// imports no harness: not the audit, not the paper's experiments, not the
// simulator (make layering).
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/par"
)

// Config sizes the service. The zero value is usable: every field falls back
// to the documented default.
type Config struct {
	// QueueDepth bounds the submission queue; a full queue rejects with
	// 429 + Retry-After. Default 64.
	QueueDepth int
	// Workers is the solve worker-pool size. Concurrent solves share the
	// process-wide kernel pool (internal/par serializes parallel regions),
	// so extra workers add concurrency without oversubscribing cores; the
	// default is the kernel pool's worker count, one solver goroutine per
	// kernel worker.
	Workers int
	// CacheEntries bounds the registry's resident operators (LRU, pinned
	// entries excepted). Default 8.
	CacheEntries int
	// MaxJobRuntime caps a job that did not request its own timeout.
	// Default 2 minutes.
	MaxJobRuntime time.Duration
	// RetainJobs bounds how many finished jobs stay queryable. Default 512.
	RetainJobs int
	// Log receives structured service logs — one record per finished job
	// (id, method, ranks, outcome, duration, overlap efficiency) plus the
	// drain-time metrics flush. Nil means slog.Default().
	Log *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// the profiling plane is opt-in (cmd/solverd's -pprof flag) so a public
	// deployment does not expose heap and CPU profiles unasked.
	EnablePprof bool
	// ShardID names this daemon inside a cluster (cmd/solverd -shard). When
	// set, job IDs are prefixed "<shard>-job-N" so a stateless router
	// (cmd/solverouter) can route status and stream lookups to the owning
	// shard from the ID alone, and /healthz and /metrics carry the identity.
	ShardID string
	// Peers maps peer shard names to their base URLs (cmd/solverd -peers).
	// The daemon serves the set on GET /v1/cluster so a router can bootstrap
	// cluster membership from any one shard ("discovery by registration").
	Peers map[string]string
	// CoalesceWidth, when > 1, lets a worker run up to this many queued
	// single-rank jobs with the same coalesce key (operator, method, PC, s,
	// tolerance, iteration budget) as ONE block solve (internal/blockcg):
	// the batch shares every SPMV and reduction while each job keeps its own
	// right-hand side, convergence trajectory, deadline and counter ledger —
	// bit-identical per job to a solo solve. Default 1: coalescing off.
	CoalesceWidth int
	// CoalesceWindow is how long a worker whose batch is not yet full waits,
	// once, for compatible stragglers before solving. Zero (the default)
	// batches only what is already queued — pure backlog coalescing, no
	// added latency.
	CoalesceWindow time.Duration
	// AutoTuneDefault changes the empty-method default from the resilience
	// ladder to the stability tuner (method "auto"): an operator whose solves
	// drift or stall is steered onto a residual-replacement configuration,
	// and repeat jobs warm-start from the recorded fingerprint. An explicit
	// method in the request always wins. cmd/solverd's -auto-tune flag.
	AutoTuneDefault bool
	// TraceSeed seeds the daemon's splitmix64 trace/span ID generator. Zero
	// (the default) seeds from the wall clock; tests set it for reproducible
	// IDs. IDs only — solver numerics never touch this stream.
	TraceSeed uint64
	// FlightJobs / FlightEvents bound the flight recorder's rings of recent
	// completed job traces and structured events. Defaults 256 / 1024.
	FlightJobs   int
	FlightEvents int
	// FlightDumpPath, when set, writes the flight recorder's JSON dump to
	// this file at the end of Drain (and Kill) — the automatic postmortem
	// artifact. cmd/solverd's -flight-dump flag.
	FlightDumpPath string
	// SkewThreshold is the straggler score at or above which a multi-rank
	// solve records a rank_skew flight event. Default 0.25; the metric
	// gauges are exported regardless.
	SkewThreshold float64
	// MutexProfileFraction / BlockProfileRate, when > 0, are applied to the
	// Go runtime's mutex and block profilers at construction so the pprof
	// plane (EnablePprof) has contention data to serve. Off by default —
	// both profilers carry a runtime cost. cmd/solverd's -pprof-mutex and
	// -pprof-block flags.
	MutexProfileFraction int
	BlockProfileRate     int

	// testHookBeforeRun, when set by in-package tests, runs in the worker
	// just before a job executes — a deterministic way to hold the pool busy
	// for admission-control and timeout tests.
	testHookBeforeRun func(*Job)
	// testFabricFault, when set by in-package tests, is installed on every
	// multi-rank solve's fabric — how the skew detector is validated against
	// the straggler-jitter injector without a public fault API.
	testFabricFault *comm.FaultConfig
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = par.Workers()
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 8
	}
	if c.MaxJobRuntime <= 0 {
		c.MaxJobRuntime = 2 * time.Minute
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 512
	}
	if c.CoalesceWidth <= 0 {
		c.CoalesceWidth = 1
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	if c.SkewThreshold <= 0 {
		c.SkewThreshold = 0.25
	}
	return c
}

// Server ties the registry, job manager and HTTP plane together.
type Server struct {
	cfg      Config
	Registry *Registry
	Jobs     *Manager
	Metrics  *Metrics
	mux      *http.ServeMux

	hsMu sync.Mutex
	hs   *http.Server
}

// New builds a stopped server; call Serve (or mount Handler) to run it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.MutexProfileFraction > 0 {
		runtime.SetMutexProfileFraction(cfg.MutexProfileFraction)
	}
	if cfg.BlockProfileRate > 0 {
		runtime.SetBlockProfileRate(cfg.BlockProfileRate)
	}
	met := NewMetrics()
	reg := NewRegistry(cfg.CacheEntries, met)
	s := &Server{
		cfg:      cfg,
		Registry: reg,
		Metrics:  met,
		Jobs:     NewManager(cfg, reg, met),
		mux:      http.NewServeMux(),
	}
	s.routes()
	return s
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Every daemon's HTTP server bounds a slow client: it has ReadHeaderTimeout
// to send a request's headers, and a keep-alive connection may sit idle for
// IdleTimeout (longer than net/http clients keep an idle connection, 90 s, so
// a client never reuses one the server is closing). Bodies are not bounded
// in time, as an upload may be 1 GiB.
const (
	ReadHeaderTimeout = 5 * time.Second
	IdleTimeout       = 120 * time.Second
)

// NewHTTPServer returns the http.Server a daemon serves h with.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// Serve runs the HTTP server on l until Drain (or a listener error). It owns
// the http.Server so Drain and Kill can shut it down.
func (s *Server) Serve(l net.Listener) error {
	hs := NewHTTPServer(s.mux)
	s.hsMu.Lock()
	s.hs = hs
	s.hsMu.Unlock()
	err := hs.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

func (s *Server) httpServer() *http.Server {
	s.hsMu.Lock()
	defer s.hsMu.Unlock()
	return s.hs
}

// Drain is the graceful-shutdown sequence: stop admissions (new submissions
// get 503), let queued and running jobs finish until ctx expires, cancel
// whatever is still in flight and wait for it to unwind, stop the workers,
// shut the HTTP server down, and flush final metrics through Config.Log.
// Drain is idempotent; concurrent calls share the same shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.Jobs.Drain(ctx)
	var err error
	if hs := s.httpServer(); hs != nil {
		// Jobs are done or cancelled; give in-flight HTTP responses (event
		// streams flushing their tail) a short bounded window.
		hctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err = hs.Shutdown(hctx)
	}
	s.flushFinalMetrics()
	s.dumpFlight("drain")
	return err
}

// Kill is the SIGKILL-equivalent teardown, for inter-daemon chaos tests: the
// HTTP server closes abruptly (in-flight requests see their connections
// reset, exactly what a killed process's peers observe), every queued and
// running job is cancelled without grace, and the workers stop. Unlike a real
// SIGKILL it still unwinds goroutines — the harness can assert zero leaks
// after the "crash" — but no client-visible nicety survives: no 503s, no
// drain window, no final event flush over HTTP.
func (s *Server) Kill() {
	if hs := s.httpServer(); hs != nil {
		hs.Close()
	}
	// Drain with an already-expired context takes the hard path immediately:
	// cancel everything live, wait only for the unwind, stop the workers.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Jobs.Drain(ctx)
	s.dumpFlight("kill")
}

// dumpFlight records the shutdown in the flight recorder and, when
// configured, writes the recorder's dump to disk — the postmortem artifact
// that survives the process. Best effort: a write failure is logged, never
// fatal (the process is already going down).
func (s *Server) dumpFlight(reason string) {
	fl := s.Jobs.Flight()
	fl.RecordEvent(obs.FlightEvent{
		UnixNS: time.Now().UnixNano(), Kind: "shutdown",
		Attrs: map[string]string{"reason": reason},
	})
	if s.cfg.FlightDumpPath == "" {
		return
	}
	data, err := json.Marshal(fl.Dump())
	if err == nil {
		err = os.WriteFile(s.cfg.FlightDumpPath, data, 0o644)
	}
	if err != nil {
		s.cfg.Log.Error("serve: flight dump failed", "path", s.cfg.FlightDumpPath, "error", err)
		return
	}
	s.cfg.Log.Info("serve: flight dump written", "path", s.cfg.FlightDumpPath, "reason", reason)
}

// flushFinalMetrics logs the end-of-life counter snapshot — the drain
// contract's "flush": the totals survive in the process log even when the
// scraper missed the last interval.
func (s *Server) flushFinalMetrics() {
	snap := s.Metrics.Snapshot(s.Jobs, s.Registry)
	s.cfg.Log.Info("serve: final metrics", "metrics", snap)
}

// fmtDuration renders a Retry-After value in whole seconds, at least 1.
func retryAfterSeconds(d time.Duration) string {
	sec := int(d / time.Second)
	if sec < 1 {
		sec = 1
	}
	return fmt.Sprintf("%d", sec)
}
