package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ShardConfig names one solverd shard and where to reach it.
type ShardConfig struct {
	Name string
	URL  string // base URL, e.g. http://127.0.0.1:8081
}

// RouterConfig sizes the router. The zero value of every field falls back to
// the documented default; Shards is required.
type RouterConfig struct {
	// Shards is the cluster membership. Shard names must match the -shard
	// identity each solverd runs with: job IDs are "<shard>-job-N", and the
	// router routes status/stream/cancel lookups by that prefix alone — the
	// router itself keeps no job table (it is stateless and restartable).
	Shards []ShardConfig
	// VNodes per member on the consistent-hash ring. Default DefaultVNodes.
	VNodes int
	// Replicas is the replication factor: uploads are written to this many
	// ring successors, and solves fail over across the same set when the
	// primary's breaker opens or it drains. Default 2, capped at the shard
	// count.
	Replicas int
	// BreakerThreshold consecutive failures open a shard's breaker; the
	// breaker half-opens after BreakerOpenFor. Defaults 3 and 2 s.
	BreakerThreshold int
	BreakerOpenFor   time.Duration
	// Retry schedules resubmission after an upstream failure.
	Retry RetryPolicy
	// ProbeInterval spaces /healthz probes per shard; ProbeTimeout bounds
	// each probe. Defaults 500 ms and 1 s. ProbeInterval < 0 disables
	// probing (request outcomes still drive the breakers).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// MaxBuffered bounds how much of a non-stream upstream response the
	// router holds back before committing it to the client. Up to this size
	// an upstream death mid-response is invisible: the router resubmits and
	// the client sees only the retried answer. Past it the response streams
	// through and a death truncates it. Default 32 MiB.
	MaxBuffered int64
	// MaxUploadBytes caps PUT /v1/matrices bodies (buffered once, then
	// replicated). Default 1 GiB.
	MaxUploadBytes int64
	// DialTimeout bounds new upstream connections, so routing around a
	// black-holed shard costs a bounded stall before its breaker opens.
	// Default 2 s.
	DialTimeout time.Duration
	// TraceSeed seeds the router's splitmix64 trace/span ID generator. Zero
	// (the default) seeds from the wall clock; tests set it for reproducible
	// IDs. Routing behavior never depends on this stream.
	TraceSeed uint64
	// FlightJobs / FlightEvents bound the router's flight recorder — the ring
	// of recent routed submissions (route + per-attempt spans) and structured
	// events (shard up/down transitions, failovers). Defaults 256 / 1024.
	FlightJobs   int
	FlightEvents int
	// FlightDumpPath, when set, writes the flight recorder's JSON dump to
	// this file when the router closes — cmd/solverouter's -flight-dump flag.
	FlightDumpPath string
	// Log receives router logs. Nil means slog.Default().
	Log *slog.Logger
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Replicas > len(c.Shards) {
		c.Replicas = len(c.Shards)
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerOpenFor <= 0 {
		c.BreakerOpenFor = 2 * time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.MaxBuffered <= 0 {
		c.MaxBuffered = 32 << 20
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 1 << 30
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	return c
}

// shard is the router's live view of one solverd.
type shard struct {
	name    string
	base    string
	breaker *Breaker

	up       atomic.Bool // last probe (or request) reached it
	draining atomic.Bool // alive but refusing admissions

	requests atomic.Int64
	errors   atomic.Int64
}

// Router is the stateless cluster front: it hashes operator keys to shards,
// proxies the solverd API, fails submissions over across the replica set
// with backoff, and propagates backpressure (429 + Retry-After, drain 503)
// instead of converting it into errors. All routing state is derived (ring
// from config, health from probes), so a restarted router resumes identical
// behavior with no recovery protocol.
type Router struct {
	cfg    RouterConfig
	log    *slog.Logger
	ring   *Ring
	shards map[string]*shard
	names  []string // sorted, for deterministic metrics/output

	client    *http.Client // proxy client: no global timeout (solves stream)
	probeC    *http.Client // probe client: short timeout
	transport *http.Transport

	mux   *http.ServeMux
	met   routerCounters
	retry *retrier

	// ids mints trace/span IDs for routed submissions; flight keeps the
	// recent route traces and shard-health transitions for postmortems
	// (GET /v1/debug/flight, dumped to disk on Close when configured).
	ids    *obs.IDGen
	flight *obs.FlightRecorder

	keyNonce int64         // boot nonce for generated idempotency keys
	keySeq   atomic.Uint64 // per-boot sequence

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// routerCounters are the router-level Prometheus counters; per-shard gauges
// are read live from the shard structs at scrape time.
type routerCounters struct {
	retries     atomic.Int64 // re-sent attempts after an upstream failure
	failovers   atomic.Int64 // requests ultimately served by a non-primary replica
	requeued    atomic.Int64 // solve jobs resubmitted at least once (idempotency-key protected)
	rejected    atomic.Int64 // shard 429s propagated to clients
	unavailable atomic.Int64 // router-issued 503s (no replica accepting)
	uploadRepl  atomic.Int64 // upload replica writes
}

// NewRouter builds a router over the given shards and starts its health
// probers; Close stops them.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one shard")
	}
	traceSeed := cfg.TraceSeed
	if traceSeed == 0 {
		traceSeed = uint64(time.Now().UnixNano())
	}
	rt := &Router{
		cfg:      cfg,
		log:      cfg.Log,
		ring:     NewRing(cfg.VNodes),
		shards:   map[string]*shard{},
		mux:      http.NewServeMux(),
		retry:    newRetrier(cfg.Retry),
		ids:      obs.NewIDGen(traceSeed),
		flight:   obs.NewFlightRecorder("solverouter", "", cfg.FlightJobs, cfg.FlightEvents),
		keyNonce: time.Now().UnixNano(),
		stop:     make(chan struct{}),
	}
	for _, sc := range cfg.Shards {
		if sc.Name == "" || sc.URL == "" {
			return nil, fmt.Errorf("cluster: shard needs name and url, got %+v", sc)
		}
		if _, dup := rt.shards[sc.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", sc.Name)
		}
		sh := &shard{
			name:    sc.Name,
			base:    strings.TrimSuffix(sc.URL, "/"),
			breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerOpenFor),
		}
		sh.up.Store(true) // trusted until a probe or request says otherwise
		rt.shards[sc.Name] = sh
		rt.names = append(rt.names, sc.Name)
		rt.ring.Add(sc.Name)
	}
	sort.Strings(rt.names)
	rt.transport = &http.Transport{
		DialContext:         (&net.Dialer{Timeout: cfg.DialTimeout}).DialContext,
		MaxIdleConnsPerHost: 32,
	}
	rt.client = &http.Client{Transport: rt.transport}
	rt.probeC = &http.Client{Transport: rt.transport, Timeout: cfg.ProbeTimeout}
	rt.routes()
	if cfg.ProbeInterval > 0 {
		for _, name := range rt.names {
			rt.wg.Add(1)
			go rt.probeLoop(rt.shards[name])
		}
	}
	return rt, nil
}

// Close stops the health probers, releases idle upstream connections, and —
// when FlightDumpPath is set — writes the flight recorder's postmortem dump.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() {
		close(rt.stop)
		rt.wg.Wait()
		rt.transport.CloseIdleConnections()
		rt.dumpFlight()
	})
	rt.wg.Wait()
}

// Flight exposes the router's flight recorder (GET /v1/debug/flight and the
// trace-smoke stitcher read it).
func (rt *Router) Flight() *obs.FlightRecorder { return rt.flight }

// dumpFlight records the shutdown and writes the dump to disk when
// configured. Best effort: a write failure is logged, never fatal.
func (rt *Router) dumpFlight() {
	rt.flight.RecordEvent(obs.FlightEvent{
		UnixNS: time.Now().UnixNano(), Kind: "shutdown",
		Attrs: map[string]string{"reason": "close"},
	})
	if rt.cfg.FlightDumpPath == "" {
		return
	}
	data, err := json.Marshal(rt.flight.Dump())
	if err == nil {
		err = os.WriteFile(rt.cfg.FlightDumpPath, data, 0o644)
	}
	if err != nil {
		rt.log.Error("cluster: flight dump failed", "path", rt.cfg.FlightDumpPath, "error", err)
		return
	}
	rt.log.Info("cluster: flight dump written", "path", rt.cfg.FlightDumpPath)
}

// Handler returns the router's HTTP handler (for tests and embedding).
func (rt *Router) Handler() http.Handler { return rt.mux }

// Replicas returns the ordered replica set (primary first) the router uses
// for the given registry key — exported for tests and the /v1/cluster view.
func (rt *Router) Replicas(key string) []string {
	return rt.ring.LookupN(key, rt.cfg.Replicas)
}

// probeLoop drives one shard's health: /healthz every ProbeInterval with a
// bounded timeout. A reachable shard feeds Breaker.Success — probes are how
// an open breaker discovers recovery and half-open trials resolve without
// spending client requests on a dead peer.
func (rt *Router) probeLoop(sh *shard) {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	rt.probeOnce(sh)
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeOnce(sh)
		}
	}
}

func (rt *Router) probeOnce(sh *shard) {
	resp, err := rt.probeC.Get(sh.base + "/healthz")
	if err != nil {
		wasUp := sh.up.Swap(false)
		sh.breaker.Failure()
		if wasUp {
			rt.log.Warn("cluster: shard down", "shard", sh.name, "error", err)
			rt.flight.RecordEvent(obs.FlightEvent{
				UnixNS: time.Now().UnixNano(), Kind: "shard_down",
				Attrs: map[string]string{"shard": sh.name, "error": err.Error()},
			})
		}
		return
	}
	var body struct {
		Status string `json:"status"`
	}
	json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&body)
	resp.Body.Close()
	if !sh.up.Swap(true) {
		rt.log.Info("cluster: shard up", "shard", sh.name, "status", body.Status)
		rt.flight.RecordEvent(obs.FlightEvent{
			UnixNS: time.Now().UnixNano(), Kind: "shard_up",
			Attrs: map[string]string{"shard": sh.name, "status": body.Status},
		})
	}
	sh.draining.Store(body.Status == "draining" || resp.StatusCode == http.StatusServiceUnavailable)
	sh.breaker.Success() // it answered; the breaker tracks liveness, not load
}

// pick selects the shard for a solve attempt: walk the replica set starting
// at the attempt index (so a retry rotates off the shard that just failed),
// preferring accepting shards and falling back to draining ones only when
// nothing else allows — a draining shard still answers status reads and
// refuses submissions cleanly.
func (rt *Router) pick(replicas []string, attempt int) *shard {
	n := len(replicas)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			sh := rt.shards[replicas[(attempt+i)%n]]
			if sh == nil {
				continue
			}
			if pass == 0 && sh.draining.Load() {
				continue
			}
			if sh.breaker.Allow() {
				return sh
			}
		}
	}
	return nil
}

// send proxies one bodied request to a shard.
func (rt *Router) send(ctx context.Context, sh *shard, method, pathAndQuery string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, sh.base+pathAndQuery, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	sh.requests.Add(1)
	resp, err := rt.client.Do(req)
	if err != nil {
		sh.errors.Add(1)
	}
	return resp, err
}

// backoff sleeps the retry schedule, cancellable by the client's context.
func (rt *Router) backoff(ctx context.Context, attempt int) bool {
	select {
	case <-time.After(rt.retry.Backoff(attempt)):
		return true
	case <-ctx.Done():
		return false
	}
}

func apiError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
