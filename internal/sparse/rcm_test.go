package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// lap2d assembles the 5-point Laplacian of an nx×ny grid (diag 4, off -1).
func lap2d(nx, ny int) *CSR {
	n := nx * ny
	b := NewBuilder(n, n)
	idx := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := idx(x, y)
			b.Add(i, i, 4)
			if x > 0 {
				b.Add(i, idx(x-1, y), -1)
			}
			if x < nx-1 {
				b.Add(i, idx(x+1, y), -1)
			}
			if y > 0 {
				b.Add(i, idx(x, y-1), -1)
			}
			if y < ny-1 {
				b.Add(i, idx(x, y+1), -1)
			}
		}
	}
	return b.Build()
}

// shuffleSym applies a random symmetric permutation, destroying locality.
func shuffleSym(a *CSR, rng *rand.Rand) (*CSR, []int) {
	perm := rng.Perm(a.Rows)
	return PermuteSym(a, perm), perm
}

func TestRCMOrderIsPermutation(t *testing.T) {
	a, _ := shuffleSym(lap2d(13, 7), rand.New(rand.NewSource(1)))
	perm := RCMOrder(a)
	if len(perm) != a.Rows {
		t.Fatalf("perm length %d, want %d", len(perm), a.Rows)
	}
	seen := make([]bool, a.Rows)
	for _, p := range perm {
		if p < 0 || p >= a.Rows || seen[p] {
			t.Fatalf("not a permutation at %d", p)
		}
		seen[p] = true
	}
}

func TestRCMOrderDeterministic(t *testing.T) {
	a, _ := shuffleSym(lap2d(9, 11), rand.New(rand.NewSource(3)))
	p1 := RCMOrder(a)
	p2 := RCMOrder(a)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("nondeterministic ordering at %d: %d vs %d", i, p1[i], p2[i])
		}
	}
}

func TestRCMReducesBandwidth(t *testing.T) {
	base := lap2d(20, 20)
	shuffled, _ := shuffleSym(base, rand.New(rand.NewSource(5)))
	perm := RCMOrder(shuffled)
	reordered := PermuteSym(shuffled, perm)
	if bw, sbw := reordered.Bandwidth(), shuffled.Bandwidth(); bw >= sbw {
		t.Fatalf("RCM did not reduce bandwidth: %d >= %d", bw, sbw)
	}
	// On a destroyed-locality grid RCM should get back near the natural
	// nx-order bandwidth (20), certainly well under half the shuffled one.
	if bw := reordered.Bandwidth(); bw > shuffled.Bandwidth()/2 {
		t.Fatalf("weak reordering: bandwidth %d vs shuffled %d", bw, shuffled.Bandwidth())
	}
}

func TestRCMDisconnectedComponents(t *testing.T) {
	// Two disjoint paths plus an isolated vertex.
	b := NewBuilder(7, 7)
	addEdge := func(i, j int) { b.Add(i, j, -1); b.Add(j, i, -1) }
	for i := 0; i < 7; i++ {
		b.Add(i, i, 2)
	}
	addEdge(0, 2)
	addEdge(2, 4)
	addEdge(1, 5)
	a := b.Build()
	perm := RCMOrder(a)
	seen := make([]bool, 7)
	for _, p := range perm {
		if seen[p] {
			t.Fatalf("duplicate %d", p)
		}
		seen[p] = true
	}
}

func TestPermuteSymValues(t *testing.T) {
	a, _ := shuffleSym(lap2d(6, 5), rand.New(rand.NewSource(9)))
	perm := RCMOrder(a)
	p := PermuteSym(a, perm)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if got, want := p.At(i, j), a.At(perm[i], perm[j]); got != want {
				t.Fatalf("P[%d][%d] = %v, want A[%d][%d] = %v", i, j, got, perm[i], perm[j], want)
			}
		}
	}
	if !p.IsSymmetric(0) {
		t.Fatal("symmetric permutation broke symmetry")
	}
}

func TestPermuteVecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 40
	perm := rng.Perm(n)
	src := make([]float64, n)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	fwd := make([]float64, n)
	back := make([]float64, n)
	PermuteVec(fwd, src, perm)
	InversePermuteVec(back, fwd, perm)
	for i := range src {
		if math.Float64bits(back[i]) != math.Float64bits(src[i]) {
			t.Fatalf("round trip changed bits at %d", i)
		}
	}
	inv := InversePerm(perm)
	for i := range perm {
		if inv[perm[i]] != i {
			t.Fatalf("InversePerm wrong at %d", i)
		}
	}
}

// TestChunkPlanInvalidation is the stale-plan regression test: a structural
// rebuild (here: permuting the matrix in place) must not keep serving the
// old nnz-balanced plan once the caller invalidates, and the invalidated
// matrix must produce correct products.
func TestChunkPlanInvalidation(t *testing.T) {
	a := lap2d(50, 40)
	p1 := a.ChunkPlan()
	if p1 != a.ChunkPlan() {
		t.Fatal("plan not cached")
	}
	n := a.Rows

	// In-place structural mutation: collapse the matrix to its diagonal.
	d := a.Diag()
	a.Col = a.Col[:n]
	a.Val = a.Val[:n]
	for i := 0; i < n; i++ {
		a.Col[i] = int32(i)
		a.Val[i] = d[i]
		a.RowPtr[i+1] = i + 1
	}

	a.InvalidatePlan()
	p2 := a.ChunkPlan()
	if p2 == p1 {
		t.Fatal("InvalidatePlan served the stale plan pointer")
	}
	// The stale plan's bounds were placed for ~5n work; the rebuilt plan
	// must cover exactly the new structure.
	if got := p2.Bounds[len(p2.Bounds)-1]; got != n {
		t.Fatalf("rebuilt plan ends at %d, want %d", got, n)
	}
	stale := RowWork(a.RowPtr, 0, n)
	if stale != 2*n {
		t.Fatalf("unexpected rebuilt work %d", stale)
	}

	// Products through the rebuilt plan are correct (pure diagonal now).
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	y := make([]float64, n)
	a.MulVec(y, x)
	for i := range y {
		if y[i] != d[i]*x[i] {
			t.Fatalf("product wrong at %d after invalidation", i)
		}
	}
}
