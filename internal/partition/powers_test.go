package partition

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/grid"
)

func TestBuildPowersPlansInvariants(t *testing.T) {
	g := grid.NewSquare(8, grid.Star5)
	a := g.Laplacian()
	for _, p := range []int{2, 3, 4} {
		for _, depth := range []int{1, 2, 3} {
			pt := RowBlock(a.Rows, p)
			plans := BuildPowersPlansCSR(a.RowPtr, a.Col, pt, depth)
			if len(plans) != p {
				t.Fatalf("plan count %d", len(plans))
			}
			for r, plan := range plans {
				if plan.Depth != depth {
					t.Fatalf("depth %d", plan.Depth)
				}
				lo, hi := pt.Lo(r), pt.Hi(r)
				// Ghosts are off-rank, sorted, owned by their GhostFrom rank.
				prev := -1
				for _, gcol := range plan.Ghost {
					if gcol >= lo && gcol < hi {
						t.Fatalf("rank %d ghost %d is local", r, gcol)
					}
					if gcol <= prev {
						t.Fatal("ghosts not sorted")
					}
					prev = gcol
				}
				for owner, cols := range plan.GhostFrom {
					for _, c := range cols {
						if pt.Owner(c) != owner {
							t.Fatalf("ghost %d not owned by %d", c, owner)
						}
					}
				}
				// Sends mirror the receivers' GhostFrom.
				for dst, cols := range plan.Send {
					ghosts := plans[dst].GhostFrom[r]
					if len(ghosts) != len(cols) {
						t.Fatalf("send/recv mismatch %d→%d", r, dst)
					}
					for i := range cols {
						if cols[i] != ghosts[i] {
							t.Fatalf("send/recv entry mismatch %d→%d", r, dst)
						}
					}
				}
				// Last step never computes redundant rows.
				if plan.Extra[depth-1] != nil {
					t.Fatal("last step must have no redundant rows")
				}
				// Depth 1 must match the shallow halo plan's receive set.
				if depth == 1 {
					halos := BuildHalos(a, pt)
					total := 0
					for _, cols := range halos[r].Recv {
						total += len(cols)
					}
					if len(plan.Ghost) != total {
						t.Fatalf("depth-1 ghost %d != halo %d", len(plan.Ghost), total)
					}
				}
				// Deeper plans require at least as many ghosts.
				if depth > 1 && plan.RedundantRows() < 0 {
					t.Fatal("negative redundancy")
				}
			}
		}
	}
}

func TestBuildPowersPlansGhostGrowsWithDepth(t *testing.T) {
	g := grid.NewSquare(10, grid.Star5)
	a := g.Laplacian()
	pt := RowBlock(a.Rows, 4)
	g1 := BuildPowersPlansCSR(a.RowPtr, a.Col, pt, 1)[1]
	g3 := BuildPowersPlansCSR(a.RowPtr, a.Col, pt, 3)[1]
	if len(g3.Ghost) <= len(g1.Ghost) {
		t.Fatalf("depth-3 ghost (%d) must exceed depth-1 (%d)", len(g3.Ghost), len(g1.Ghost))
	}
	if g3.RedundantRows() == 0 {
		t.Fatal("depth-3 must recompute some rows")
	}
}

// TestBuildPowersPlansMatchReference: the marker-slice BFS must produce the
// plans of the map-based builder it replaced, entry for entry.
func TestBuildPowersPlansMatchReference(t *testing.T) {
	grids := map[string]grid.Grid{
		"star5":  grid.NewSquare(14, grid.Star5),
		"star7":  grid.NewCube(7, grid.Star7),
		"box125": grid.NewCube(6, grid.Box125),
	}
	for name, g := range grids {
		a := g.Laplacian()
		for _, p := range []int{2, 3, 5, 8} {
			pt := RowBlockByNNZ(a, p)
			for depth := 1; depth <= 5; depth++ {
				got := BuildPowersPlansCSR(a.RowPtr, a.Col, pt, depth)
				want := buildPowersPlansRef(a.RowPtr, a.Col, pt, depth)
				for r := range want {
					id := fmt.Sprintf("%s p=%d depth=%d rank %d", name, p, depth, r)
					if !reflect.DeepEqual(got[r].Ghost, want[r].Ghost) {
						t.Fatalf("%s: ghost sets differ", id)
					}
					if !reflect.DeepEqual(got[r].GhostFrom, want[r].GhostFrom) {
						t.Fatalf("%s: GhostFrom differs", id)
					}
					if !reflect.DeepEqual(got[r].Send, want[r].Send) {
						t.Fatalf("%s: Send differs", id)
					}
					for j, runs := range got[r].Extra {
						var rows []int
						for k, run := range runs {
							if run.Lo >= run.Hi || (k > 0 && run.Lo <= runs[k-1].Hi) {
								t.Fatalf("%s: step %d runs not sorted, disjoint and maximal: %v", id, j, runs)
							}
							for i := run.Lo; i < run.Hi; i++ {
								rows = append(rows, i)
							}
						}
						if !reflect.DeepEqual(rows, want[r].Extra[j]) {
							t.Fatalf("%s: step %d redundant rows differ", id, j)
						}
					}
				}
			}
		}
	}
}

// BenchmarkBuildPowersPlans builds both ranks' depth-3 plans for the 32³
// 7-point Poisson matrix (the solve_latency operator).
func BenchmarkBuildPowersPlans(b *testing.B) {
	a := grid.NewCube(32, grid.Star7).Laplacian()
	pt := RowBlockByNNZ(a, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildPowersPlansCSR(a.RowPtr, a.Col, pt, 3)
	}
}

func TestBuildPowersPlansBadDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildPowersPlansCSR([]int{0}, nil, RowBlock(0, 1), 0)
}

func TestPowersStats(t *testing.T) {
	g := GridSpec{Nx: 32, Ny: 32, Nz: 32, Radius: 1}
	nnz := g.N() * 7
	shallow := g.Stats(nnz, 64)
	deep, redundant := g.PowersStats(nnz, 64, 3)
	if deep.MaxHaloCols <= shallow.MaxHaloCols {
		t.Fatal("deep halo must exceed shallow halo")
	}
	if redundant <= 0 {
		t.Fatal("depth 3 must have redundant rows")
	}
	if deep.MaxRows != shallow.MaxRows {
		t.Fatal("owned rows unchanged by MPK")
	}
	// Depth 1 degenerates to the plain stats with no redundancy.
	d1, r1 := g.PowersStats(nnz, 64, 1)
	if r1 != 0 || d1.MaxHaloCols != shallow.MaxHaloCols {
		t.Fatalf("depth-1 should equal shallow: %+v r=%d", d1, r1)
	}
}
