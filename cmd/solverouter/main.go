// Command solverouter is the stateless cluster front for a set of solverd
// shards: it hashes operator keys onto a consistent-hash ring, proxies the
// solverd API to the owning shard, replicates uploads across the replica
// set, probes shard health, and fails submissions over (with exponential
// backoff + jitter, protected by idempotency job keys) when a shard dies or
// drains.
//
// Examples:
//
//	solverouter -addr :8080 -shards 's0=http://127.0.0.1:8081,s1=http://127.0.0.1:8082,s2=http://127.0.0.1:8083'
//	solverouter -addr :8080 -discover http://127.0.0.1:8081   (membership from the shard's /v1/cluster)
//
// then, exactly as against one solverd:
//
//	curl -s localhost:8080/v1/solve -d '{"problem":"poisson7","n":20}'
//	curl -s localhost:8080/metrics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("solverouter: ")
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		shards     = flag.String("shards", "", "shard set as name=http://host:port,...")
		discover   = flag.String("discover", "", "bootstrap membership from one shard's GET /v1/cluster (needs solverd -shard/-peers)")
		vnodes     = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per shard on the hash ring")
		replicas   = flag.Int("replicas", 2, "replication factor for uploads and solve failover")
		retries    = flag.Int("retries", 3, "total submit attempts across replicas")
		retryBase  = flag.Duration("retry-base", 50*time.Millisecond, "first retry backoff step")
		retryCap   = flag.Duration("retry-cap", 2*time.Second, "retry backoff ceiling")
		brkN       = flag.Int("breaker-threshold", 3, "consecutive failures that open a shard's breaker")
		brkOpen    = flag.Duration("breaker-open", 2*time.Second, "open interval before a breaker half-opens")
		probe      = flag.Duration("probe", 500*time.Millisecond, "health probe interval per shard")
		flightDump = flag.String("flight-dump", "",
			"write the router flight recorder's JSON dump to this file on shutdown")
		traceSeed = flag.Uint64("trace-seed", 0,
			"seed for trace/span ID generation (0 = wall clock)")
	)
	flag.Parse()

	set, err := shardSet(*shards, *discover)
	if err != nil {
		log.Fatal(err)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Shards:           set,
		VNodes:           *vnodes,
		Replicas:         *replicas,
		Retry:            cluster.RetryPolicy{MaxAttempts: *retries, Base: *retryBase, Cap: *retryCap, Seed: time.Now().UnixNano()},
		BreakerThreshold: *brkN,
		BreakerOpenFor:   *brkOpen,
		ProbeInterval:    *probe,
		FlightDumpPath:   *flightDump,
		TraceSeed:        *traceSeed,
		Log:              slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, sc := range set {
		log.Printf("shard %s at %s", sc.Name, sc.URL)
	}

	hs := serve.NewHTTPServer(rt.Handler())
	hs.Addr = *addr
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	log.Printf("routing on %s over %d shards", *addr, len(set))

	select {
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	case got := <-sig:
		log.Printf("%s: shutting down", got)
		hs.Close()
		rt.Close()
	}
}

// shardSet resolves membership from -shards, or by discovery from one
// shard's /v1/cluster view (its own identity plus registered peers).
func shardSet(list, discoverURL string) ([]cluster.ShardConfig, error) {
	if list != "" {
		var out []cluster.ShardConfig
		for _, part := range strings.Split(list, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			name, url, ok := strings.Cut(part, "=")
			if !ok || name == "" || url == "" {
				return nil, fmt.Errorf("bad shard %q: want name=url", part)
			}
			out = append(out, cluster.ShardConfig{Name: name, URL: url})
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("no shards in %q", list)
		}
		return out, nil
	}
	if discoverURL == "" {
		return nil, fmt.Errorf("need -shards or -discover")
	}
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(strings.TrimSuffix(discoverURL, "/") + "/v1/cluster")
	if err != nil {
		return nil, fmt.Errorf("discover %s: %v", discoverURL, err)
	}
	defer resp.Body.Close()
	var info serve.ClusterInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("discover %s: %v", discoverURL, err)
	}
	if info.Shard == "" {
		return nil, fmt.Errorf("discover %s: shard has no identity (run solverd with -shard)", discoverURL)
	}
	out := []cluster.ShardConfig{{Name: info.Shard, URL: strings.TrimSuffix(discoverURL, "/")}}
	for name, url := range info.Peers {
		out = append(out, cluster.ShardConfig{Name: name, URL: url})
	}
	return out, nil
}
