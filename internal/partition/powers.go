package partition

import "sort"

// Run is a contiguous range of global rows [Lo, Hi).
type Run struct{ Lo, Hi int }

// PowersPlan is one rank's plan for the matrix powers kernel (Hoemmen's
// communication-avoiding SPMV, the paper's §II discussion of CA-CG): with a
// single exchange of a depth-k ghost region, the rank computes
// [A·v, A²·v, …, A^k·v] on its rows, recomputing ghost-zone rows redundantly
// instead of exchanging after every application.
type PowersPlan struct {
	Depth int
	// Ghost lists the off-rank source entries (global indices) required
	// before step 1, sorted ascending — the single exchange's receive set.
	Ghost []int
	// GhostFrom groups Ghost by owner rank.
	GhostFrom map[int][]int
	// Send lists, per destination rank, the locally owned indices this
	// rank must ship (the destinations' GhostFrom slices, shared read-only).
	Send map[int][]int
	// Extra[j] covers the off-rank rows whose value of A^{j+1}·v this rank
	// computes redundantly (needed by later steps) as sorted, disjoint,
	// maximal runs, so they go through the range kernels run by run.
	// Extra[j] ⊇ Extra[j+1], and Extra[Depth-1] is always empty — the last
	// step only needs local rows.
	Extra [][]Run
}

// RedundantRows returns the total number of redundantly computed rows across
// all steps (the MPK's extra work).
func (p *PowersPlan) RedundantRows() int {
	total := 0
	for _, runs := range p.Extra {
		total += RunRows(runs)
	}
	return total
}

// RunRows returns the number of rows the runs cover.
func RunRows(runs []Run) int {
	total := 0
	for _, r := range runs {
		total += r.Hi - r.Lo
	}
	return total
}

// BuildPowersPlansCSR computes the depth-k matrix powers plans for a CSR
// matrix given by its rowPtr/col structure under partition pt: per rank, a
// frontier BFS outward from its row block over one marker slice shared by
// all ranks (dist[i] = row→column hops from the block to off-rank row i,
// reset over the visited set only), so the cost is one pass over the
// matrix plus the ghost shells, not a map of every row.
func BuildPowersPlansCSR(rowPtr []int, col []int32, pt Partition, depth int) []PowersPlan {
	if depth < 1 {
		panic("partition: powers depth must be ≥ 1")
	}
	plans := make([]PowersPlan, pt.P)
	dist := make([]int32, pt.N)
	for r := range plans {
		lo, hi := pt.Lo(r), pt.Hi(r)
		var ghost []int
		// scan marks the unvisited off-rank columns of rows [from, to) at
		// distance d and appends them to the frontier.
		scan := func(from, to int, d int32) {
			for k := rowPtr[from]; k < rowPtr[to]; k++ {
				if c := int(col[k]); (c < lo || c >= hi) && dist[c] == 0 {
					dist[c] = d
					ghost = append(ghost, c)
				}
			}
		}
		scan(lo, hi, 1)
		for d, start := 2, 0; d <= depth; d++ {
			end := len(ghost)
			for _, i := range ghost[start:end] {
				scan(i, i+1, int32(d))
			}
			start = end
		}
		sort.Ints(ghost)

		plan := PowersPlan{Depth: depth, Ghost: ghost, GhostFrom: map[int][]int{},
			Send: map[int][]int{}, Extra: make([][]Run, depth)}
		// ghost is sorted, so each owner's share is one contiguous slice.
		for i := 0; i < len(ghost); {
			owner := pt.Owner(ghost[i])
			j := i
			for j < len(ghost) && ghost[j] < pt.Hi(owner) {
				j++
			}
			plan.GhostFrom[owner] = ghost[i:j:j]
			i = j
		}
		// Step j (1-based) needs A^j·v on every off-rank row within depth-j
		// hops; the last step needs none.
		for j := 1; j < depth; j++ {
			plan.Extra[j-1] = runsWithin(ghost, dist, int32(depth-j))
		}
		for _, g := range ghost {
			dist[g] = 0
		}
		plans[r] = plan
	}
	// Mirror receive sets into send sets.
	for r := range plans {
		for owner, ghosts := range plans[r].GhostFrom {
			plans[owner].Send[r] = ghosts
		}
	}
	return plans
}

// runsWithin coalesces the entries of the sorted index list whose distance
// is at most d into maximal contiguous runs.
func runsWithin(sorted []int, dist []int32, d int32) []Run {
	var runs []Run
	for _, i := range sorted {
		if dist[i] > d {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1].Hi == i {
			runs[n-1].Hi++
		} else {
			runs = append(runs, Run{i, i + 1})
		}
	}
	return runs
}
