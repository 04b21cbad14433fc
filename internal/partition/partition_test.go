package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/sparse"
)

func TestRowBlockBalanced(t *testing.T) {
	pt := RowBlock(10, 3)
	if pt.Bounds[0] != 0 || pt.Bounds[3] != 10 {
		t.Fatalf("bounds %v", pt.Bounds)
	}
	total := 0
	for r := 0; r < 3; r++ {
		rows := pt.Rows(r)
		if rows < 3 || rows > 4 {
			t.Fatalf("rank %d rows %d", r, rows)
		}
		total += rows
	}
	if total != 10 {
		t.Fatalf("total rows %d", total)
	}
}

func TestRowBlockMoreRanksThanRows(t *testing.T) {
	pt := RowBlock(2, 5)
	total := 0
	for r := 0; r < 5; r++ {
		total += pt.Rows(r)
	}
	if total != 2 {
		t.Fatalf("total %d", total)
	}
}

func TestOwnerConsistent(t *testing.T) {
	pt := RowBlock(100, 7)
	for row := 0; row < 100; row++ {
		r := pt.Owner(row)
		if row < pt.Lo(r) || row >= pt.Hi(r) {
			t.Fatalf("owner(%d) = %d but range is [%d,%d)", row, r, pt.Lo(r), pt.Hi(r))
		}
	}
}

func TestOwnerPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RowBlock(5, 2).Owner(5)
}

func TestRowBlockByNNZBalances(t *testing.T) {
	// Matrix with very uneven rows: row i has i+1 entries.
	n := 64
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			b.Add(i, j, 1)
		}
	}
	a := b.Build()
	pt := RowBlockByNNZ(a, 4)
	if pt.Bounds[0] != 0 || pt.Bounds[4] != n {
		t.Fatalf("bounds %v", pt.Bounds)
	}
	nnzTotal := a.NNZ()
	for r := 0; r < 4; r++ {
		nnz := a.RowPtr[pt.Hi(r)] - a.RowPtr[pt.Lo(r)]
		// Each block should be within 2x of fair share despite granularity.
		if nnz > nnzTotal/2 {
			t.Fatalf("rank %d nnz %d of %d — not balanced", r, nnz, nnzTotal)
		}
	}
	// Compare against naive row split: nnz balance must be better.
	naive := RowBlock(n, 4)
	worstNNZ := func(p Partition) int {
		w := 0
		for r := 0; r < p.P; r++ {
			if nnz := a.RowPtr[p.Hi(r)] - a.RowPtr[p.Lo(r)]; nnz > w {
				w = nnz
			}
		}
		return w
	}
	if worstNNZ(pt) >= worstNNZ(naive) {
		t.Fatalf("nnz-balanced worst %d not better than naive %d", worstNNZ(pt), worstNNZ(naive))
	}
}

func TestComputeStatsTridiag(t *testing.T) {
	n := 12
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i > 0 {
			b.Add(i, i-1, -1)
		}
		if i+1 < n {
			b.Add(i, i+1, -1)
		}
	}
	a := b.Build()
	pt := RowBlock(n, 3)
	st := ComputeStats(a, pt)
	if st.MaxRows != 4 {
		t.Fatalf("MaxRows = %d", st.MaxRows)
	}
	// Middle block reads one column from each side.
	if st.MaxHaloCols != 2 || st.MaxNeighbors != 2 {
		t.Fatalf("halo=%d nbrs=%d", st.MaxHaloCols, st.MaxNeighbors)
	}
}

func TestBuildHalosSymmetricPlan(t *testing.T) {
	g := grid.NewSquare(8, grid.Star5)
	a := g.Laplacian()
	pt := RowBlock(a.Rows, 4)
	halos := BuildHalos(a, pt)
	// Every Recv on rank r from nbr must equal nbr's Send to r.
	for r := 0; r < 4; r++ {
		for nbr, cols := range halos[r].Recv {
			send := halos[nbr].Send[r]
			if len(send) != len(cols) {
				t.Fatalf("rank %d recv %d cols from %d but it sends %d", r, len(cols), nbr, len(send))
			}
			for i := range cols {
				if send[i] != cols[i] {
					t.Fatalf("plan mismatch r=%d nbr=%d", r, nbr)
				}
			}
			// All received columns must be owned by nbr and off-rank for r.
			for _, c := range cols {
				if pt.Owner(c) != nbr {
					t.Fatalf("col %d not owned by %d", c, nbr)
				}
				if c >= pt.Lo(r) && c < pt.Hi(r) {
					t.Fatalf("col %d is local to rank %d", c, r)
				}
			}
		}
	}
}

func TestBuildHalosCoverAllOffRankColumns(t *testing.T) {
	g := grid.NewCube(5, grid.Star7)
	a := g.Laplacian()
	pt := RowBlock(a.Rows, 5)
	halos := BuildHalos(a, pt)
	for r := 0; r < pt.P; r++ {
		have := map[int]bool{}
		for _, cols := range halos[r].Recv {
			for _, c := range cols {
				have[c] = true
			}
		}
		lo, hi := pt.Lo(r), pt.Hi(r)
		for k := a.RowPtr[lo]; k < a.RowPtr[hi]; k++ {
			c := int(a.Col[k])
			if (c < lo || c >= hi) && !have[c] {
				t.Fatalf("rank %d misses halo col %d", r, c)
			}
		}
	}
}

// Property: bounds are monotone and partition the row space for random n, p.
func TestQuickRowBlockValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(1000)
		p := 1 + rng.Intn(64)
		pt := RowBlock(n, p)
		if pt.Bounds[0] != 0 || pt.Bounds[p] != n {
			return false
		}
		for r := 0; r < p; r++ {
			if pt.Bounds[r+1] < pt.Bounds[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RowBlockByNNZ is a valid partition for random sparse matrices.
func TestQuickRowBlockByNNZValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		p := 1 + rng.Intn(8)
		if p > n {
			p = n
		}
		b := sparse.NewBuilder(n, n)
		for i := 0; i < n; i++ {
			b.Add(i, i, 1)
			for j := 0; j < rng.Intn(5); j++ {
				b.Add(i, rng.Intn(n), 1)
			}
		}
		a := b.Build()
		pt := RowBlockByNNZ(a, p)
		if pt.Bounds[0] != 0 || pt.Bounds[p] != n {
			return false
		}
		for r := 0; r < p; r++ {
			if pt.Bounds[r+1] < pt.Bounds[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
