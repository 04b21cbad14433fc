package serve

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// ProblemSpec names a registry operator: a built-in workload (plus its size
// parameters) or an uploaded MatrixMarket matrix. The zero parameters take
// service defaults sized for interactive solves (N=10, Scale=32).
type ProblemSpec struct {
	Problem string `json:"problem"`
	N       int    `json:"n,omitempty"`     // grid dimension (Poisson problems)
	Scale   int    `json:"scale,omitempty"` // reduction factor (SuiteSparse stand-ins)
}

func (s ProblemSpec) normalized() ProblemSpec {
	if s.N <= 0 {
		s.N = 10
	}
	if s.Scale <= 0 {
		s.Scale = 32
	}
	return s
}

// Key is the registry cache key: one resident operator per distinct spec.
func (s ProblemSpec) Key() string {
	s = s.normalized()
	return fmt.Sprintf("%s/n=%d/scale=%d", s.Problem, s.N, s.Scale)
}

// Entry is one resident operator: the problem built once, plus the derived
// artifacts — row partitions per rank count and a preconditioner pool per PC
// name — each also built once and reused across jobs. In-flight jobs hold a
// reference; the LRU never evicts a referenced entry.
type Entry struct {
	key  string
	spec ProblemSpec

	buildOnce sync.Once
	problem   workload.Problem
	buildErr  error

	mu    sync.Mutex
	parts map[int]partition.Partition
	pcs   map[string]*pcPool

	// Registry bookkeeping, guarded by the registry mutex.
	refs    int
	lastUse int64
}

// Problem returns the built problem. Only valid after a successful Acquire.
func (e *Entry) Problem() workload.Problem { return e.problem }

// Partition returns the nnz-balanced row partition for the given rank count,
// computing it once per count ("partitioned once").
func (e *Entry) Partition(ranks int) partition.Partition {
	e.mu.Lock()
	defer e.mu.Unlock()
	if pt, ok := e.parts[ranks]; ok {
		return pt
	}
	pt := partition.RowBlockByNNZ(e.problem.A, ranks)
	e.parts[ranks] = pt
	return pt
}

// pcPool is a check-out/check-in pool of preconditioner instances for one PC
// name. Instances own Apply scratch (see internal/precond), so a single
// instance must never serve two concurrent solves; the pool keeps setup
// amortized ("preconditioner set up once") while staying race-free: a burst
// of concurrent jobs builds extras once, then every later job reuses them.
type pcPool struct {
	mu   sync.Mutex
	free []engine.Preconditioner
}

// AcquirePC checks a preconditioner for pcName out of the entry's pool,
// building a new instance only when every existing one is in use. Release
// the returned instance with ReleasePC. A nil preconditioner (pcName "none"
// or "") is returned as (nil, nil).
func (e *Entry) AcquirePC(pcName string) (engine.Preconditioner, error) {
	if pcName == "" || pcName == "none" {
		return nil, nil
	}
	e.mu.Lock()
	pool, ok := e.pcs[pcName]
	if !ok {
		pool = &pcPool{}
		e.pcs[pcName] = pool
	}
	e.mu.Unlock()

	pool.mu.Lock()
	if n := len(pool.free); n > 0 {
		pc := pool.free[n-1]
		pool.free = pool.free[:n-1]
		pool.mu.Unlock()
		return pc, nil
	}
	pool.mu.Unlock()
	return workload.PC(pcName, e.problem)
}

// ReleasePC returns a checked-out preconditioner to the entry's pool.
func (e *Entry) ReleasePC(pcName string, pc engine.Preconditioner) {
	if pc == nil {
		return
	}
	e.mu.Lock()
	pool := e.pcs[pcName]
	e.mu.Unlock()
	if pool == nil {
		return
	}
	pool.mu.Lock()
	pool.free = append(pool.free, pc)
	pool.mu.Unlock()
}

// Registry is the operator cache: entries are built on first Acquire, pinned
// by refcount while jobs use them, and evicted least-recently-used when the
// resident count exceeds the cap. Uploaded matrices are kept as named
// sources, so an evicted upload entry drops only its derived artifacts — the
// parsed matrix survives and the next Acquire rebuilds cheaply.
type Registry struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*Entry
	uploads map[string]*sparse.CSR
	useSeq  int64

	met *Metrics
}

// NewRegistry builds a registry holding at most cap entries (pinned entries
// may push past the cap; they are never evicted).
func NewRegistry(cap int, met *Metrics) *Registry {
	if cap < 1 {
		cap = 1
	}
	if met == nil {
		met = NewMetrics()
	}
	return &Registry{cap: cap, entries: map[string]*Entry{}, uploads: map[string]*sparse.CSR{}, met: met}
}

// RegisterUpload parses a MatrixMarket stream (plain or gzipped — the reader
// sniffs) and registers it under name, making ProblemSpec{Problem: name}
// resolvable. Re-registering a name replaces the matrix and invalidates the
// cached entry (unless it is pinned by an in-flight job, in which case the
// running jobs keep the old operator and new jobs get the new one once the
// pin drops — the entry is marked stale and evicted at release).
func (g *Registry) RegisterUpload(name string, r io.Reader) (rows, nnz int, err error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return 0, 0, fmt.Errorf("serve: empty upload name")
	}
	if slices.Contains(workload.Names, name) {
		return 0, 0, fmt.Errorf("serve: name %q shadows a built-in problem", name)
	}
	a, err := sparse.ReadMatrixMarket(r)
	if err != nil {
		return 0, 0, err
	}
	if a.Rows != a.Cols {
		return 0, 0, fmt.Errorf("serve: matrix %q is %d×%d; solves need a square system", name, a.Rows, a.Cols)
	}
	g.mu.Lock()
	g.uploads[name] = a
	// Drop any entry built from a previous upload under this name.
	for key, e := range g.entries {
		if e.spec.Problem == name && e.refs == 0 {
			delete(g.entries, key)
		}
	}
	g.mu.Unlock()
	return a.Rows, a.NNZ(), nil
}

// RegisterFile uploads a MatrixMarket file (".mtx" or ".mtx.gz") from disk,
// registered under its base name with extensions stripped.
func (g *Registry) RegisterFile(path string) (name string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	name = filepath.Base(path)
	name = strings.TrimSuffix(name, ".gz")
	name = strings.TrimSuffix(name, ".mtx")
	_, _, err = g.RegisterUpload(name, f)
	return name, err
}

// Uploads lists the registered upload names, sorted.
func (g *Registry) Uploads() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	names := make([]string, 0, len(g.uploads))
	for n := range g.uploads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Acquire returns the entry for spec, building it on first use, and pins it
// (refcount) until the matching Release. The build runs outside the registry
// lock; concurrent acquirers of the same spec share one build.
func (g *Registry) Acquire(spec ProblemSpec) (*Entry, error) {
	spec = spec.normalized()
	key := spec.Key()
	g.mu.Lock()
	e, ok := g.entries[key]
	if ok {
		g.met.cacheHits.Add(1)
	} else {
		g.met.cacheMisses.Add(1)
		e = &Entry{key: key, spec: spec, parts: map[int]partition.Partition{}, pcs: map[string]*pcPool{}}
		g.entries[key] = e
	}
	// Pin before evicting so the entry being acquired is never its own
	// eviction victim.
	e.refs++
	g.useSeq++
	e.lastUse = g.useSeq
	if !ok {
		g.evictLocked()
	}
	g.mu.Unlock()

	e.buildOnce.Do(func() {
		pr, err := g.build(spec)
		// Published under e.mu so listings (Summaries) can peek at entries
		// whose build they did not synchronize with via the Once.
		e.mu.Lock()
		e.problem, e.buildErr = pr, err
		e.mu.Unlock()
	})
	if e.buildErr != nil {
		err := e.buildErr
		g.mu.Lock()
		e.refs--
		// A failed build must not poison the cache: drop the entry once the
		// last acquirer has seen the error so a later Acquire can retry.
		if e.refs == 0 && g.entries[key] == e {
			delete(g.entries, key)
		}
		g.mu.Unlock()
		return nil, err
	}
	return e, nil
}

// Release unpins an entry acquired with Acquire.
func (g *Registry) Release(e *Entry) {
	if e == nil {
		return
	}
	g.mu.Lock()
	e.refs--
	if e.refs < 0 {
		panic("serve: registry entry over-released")
	}
	g.evictLocked()
	g.mu.Unlock()
}

// evictLocked drops least-recently-used unpinned entries until the resident
// count fits the cap. Caller holds g.mu.
func (g *Registry) evictLocked() {
	for len(g.entries) > g.cap {
		var victim *Entry
		for _, e := range g.entries {
			if e.refs > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return // everything is pinned; allow temporary overshoot
		}
		delete(g.entries, victim.key)
		g.met.cacheEvictions.Add(1)
	}
}

// Len returns the resident entry count.
func (g *Registry) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.entries)
}

// build constructs the problem for spec: an uploaded matrix by name, else a
// built-in workload from the workload catalogue. Uploaded operators are RCM
// reordered at build time — bandwidth (and with it the row-block halo
// volume) shrinks, and every derived artifact (partitions, halos, PCs) is
// computed from the reordered system. Problem.Perm records the reordering;
// the job runner un-permutes iterates before they reach the client, so the
// reordering is invisible at the API boundary. Built-ins are left in their
// native ordering, which keeps daemon solves bit-identical to the CLI path.
func (g *Registry) build(spec ProblemSpec) (workload.Problem, error) {
	g.mu.Lock()
	a, ok := g.uploads[spec.Problem]
	g.mu.Unlock()
	if ok {
		pr := workload.Problem{Name: spec.Problem, A: a, B: grid.OnesRHS(a), RelTol: 1e-5}
		if perm := sparse.RCMOrder(a); !isIdentityPerm(perm) {
			pr.A = sparse.PermuteSym(a, perm)
			// b = A·1 commutes with the symmetric permutation (P·1 = 1), so
			// the reordered RHS is just OnesRHS of the reordered matrix.
			pr.B = grid.OnesRHS(pr.A)
			pr.Perm = perm
		}
		return pr, nil
	}
	return workload.ProblemByName(spec.Problem, spec.N, spec.Scale)
}

func isIdentityPerm(p []int) bool {
	for i, v := range p {
		if v != i {
			return false
		}
	}
	return true
}

// EntrySummary is the registry listing for the HTTP plane. Bytes is what the
// entry's system holds resident: the CSR (RowPtr, Col, Val) and B.
type EntrySummary struct {
	Key   string `json:"key"`
	N     int    `json:"n"`
	NNZ   int    `json:"nnz"`
	Bytes int    `json:"bytes"`
	Refs  int    `json:"refs"`
}

// Summaries lists resident entries, most recently used first.
func (g *Registry) Summaries() []EntrySummary {
	g.mu.Lock()
	entries := make([]*Entry, 0, len(g.entries))
	for _, e := range g.entries {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].lastUse > entries[j].lastUse })
	out := make([]EntrySummary, 0, len(entries))
	refs := make([]int, len(entries))
	for i, e := range entries {
		refs[i] = e.refs
	}
	g.mu.Unlock()
	for i, e := range entries {
		s := EntrySummary{Key: e.key, Refs: refs[i]}
		e.mu.Lock()
		if e.buildErr == nil && e.problem.A != nil {
			s.N, s.NNZ = e.problem.A.Rows, e.problem.A.NNZ()
			s.Bytes = e.problem.A.Bytes() + 8*s.N
		}
		e.mu.Unlock()
		out = append(out, s)
	}
	return out
}
