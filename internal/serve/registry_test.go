package serve

import (
	"bytes"
	"compress/gzip"
	"strings"
	"testing"

	"repro/internal/workload"
)

func specP7(n int) ProblemSpec { return ProblemSpec{Problem: "poisson7", N: n} }

func TestRegistryBuildOnceAndHitCounting(t *testing.T) {
	met := NewMetrics()
	g := NewRegistry(4, met)
	e1, err := g.Acquire(specP7(5))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := g.Acquire(specP7(5))
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("same spec must share one entry")
	}
	if e1.Problem().A == nil || e1.Problem().A.Rows != 125 {
		t.Fatalf("bad problem build: %+v", e1.Problem().Name)
	}
	if met.cacheMisses.Load() != 1 || met.cacheHits.Load() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", met.cacheHits.Load(), met.cacheMisses.Load())
	}
	g.Release(e1)
	g.Release(e2)
}

func TestRegistryLRUEvictionRespectsPins(t *testing.T) {
	met := NewMetrics()
	g := NewRegistry(2, met)
	a, _ := g.Acquire(specP7(4))
	b, _ := g.Acquire(specP7(5))
	// Keep a pinned; release b so it is the only eviction candidate.
	g.Release(b)
	c, err := g.Acquire(specP7(6)) // exceeds cap → evict b (LRU, unpinned)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("len=%d want 2", g.Len())
	}
	if met.cacheEvictions.Load() != 1 {
		t.Fatalf("evictions=%d want 1", met.cacheEvictions.Load())
	}
	// b was evicted: reacquiring is a miss; a stayed pinned: a hit.
	b2, _ := g.Acquire(specP7(5))
	if b2 == b {
		t.Fatal("evicted entry must be rebuilt")
	}
	a2, _ := g.Acquire(specP7(4))
	if a2 != a {
		t.Fatal("pinned entry must survive eviction pressure")
	}
	for _, e := range []*Entry{a, c, b2, a2} {
		g.Release(e)
	}
}

func TestRegistryAllPinnedOvershoots(t *testing.T) {
	g := NewRegistry(1, NewMetrics())
	a, _ := g.Acquire(specP7(4))
	b, _ := g.Acquire(specP7(5))
	if g.Len() != 2 {
		t.Fatalf("len=%d want 2 (both pinned, overshoot allowed)", g.Len())
	}
	g.Release(a)
	g.Release(b)
	if g.Len() != 1 {
		t.Fatalf("len=%d want 1 after releases", g.Len())
	}
}

func TestRegistryUnknownProblemNotCached(t *testing.T) {
	g := NewRegistry(2, NewMetrics())
	if _, err := g.Acquire(ProblemSpec{Problem: "bogus"}); err == nil {
		t.Fatal("want error")
	}
	if g.Len() != 0 {
		t.Fatal("failed build must not stay resident")
	}
}

func TestRegistryPCPoolReuse(t *testing.T) {
	g := NewRegistry(2, NewMetrics())
	e, err := g.Acquire(specP7(5))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release(e)
	pc1, err := e.AcquirePC("jacobi")
	if err != nil || pc1 == nil {
		t.Fatalf("pc build: %v", err)
	}
	// Concurrent second checkout builds a distinct instance.
	pc2, _ := e.AcquirePC("jacobi")
	if pc1 == pc2 {
		t.Fatal("concurrent checkouts must not share an instance")
	}
	e.ReleasePC("jacobi", pc1)
	pc3, _ := e.AcquirePC("jacobi")
	if pc3 != pc1 {
		t.Fatal("released instance must be reused, not rebuilt")
	}
	e.ReleasePC("jacobi", pc2)
	e.ReleasePC("jacobi", pc3)
	if pc, err := e.AcquirePC("none"); err != nil || pc != nil {
		t.Fatal("'none' must yield a nil preconditioner")
	}
}

const uploadMM = `%%MatrixMarket matrix coordinate real symmetric
3 3 4
1 1 4.0
2 2 4.0
3 3 4.0
2 1 -1.0
`

func TestRegistryUploadPlainAndGzip(t *testing.T) {
	g := NewRegistry(2, NewMetrics())
	rows, nnz, err := g.RegisterUpload("tiny", strings.NewReader(uploadMM))
	if err != nil {
		t.Fatal(err)
	}
	if rows != 3 || nnz != 5 { // symmetric off-diagonal expanded
		t.Fatalf("rows=%d nnz=%d", rows, nnz)
	}
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write([]byte(uploadMM))
	gz.Close()
	if _, _, err := g.RegisterUpload("tinygz", &buf); err != nil {
		t.Fatal(err)
	}
	if got := g.Uploads(); len(got) != 2 || got[0] != "tiny" || got[1] != "tinygz" {
		t.Fatalf("uploads = %v", got)
	}
	e, err := g.Acquire(ProblemSpec{Problem: "tinygz"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Problem().A.Rows != 3 {
		t.Fatal("upload entry not built from parsed matrix")
	}
	g.Release(e)

	// Every catalogue name is refused, from the name list alone (the check
	// used to build a whole built-in problem to find out).
	for _, name := range workload.Names {
		if _, _, err := g.RegisterUpload(name, strings.NewReader(uploadMM)); err == nil ||
			!strings.Contains(err.Error(), "shadows a built-in problem") {
			t.Fatalf("upload named %q: error %v, want the shadowing refusal", name, err)
		}
	}
	if _, _, err := g.RegisterUpload("  ", strings.NewReader(uploadMM)); err == nil {
		t.Fatal("empty name must fail")
	}
	if _, _, err := g.RegisterUpload("rect", strings.NewReader(
		"%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n")); err == nil {
		t.Fatal("non-square upload must fail")
	}
}

func TestRegistryPartitionCached(t *testing.T) {
	g := NewRegistry(2, NewMetrics())
	e, err := g.Acquire(specP7(5))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release(e)
	p1 := e.Partition(4)
	p2 := e.Partition(4)
	if p1.P != 4 || p2.P != 4 {
		t.Fatalf("partition ranks %d/%d", p1.P, p2.P)
	}
	if p1.N != e.Problem().A.Rows {
		t.Fatal("partition size mismatch")
	}
}
