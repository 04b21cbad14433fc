package partition

import "sort"

// The map-based builder BuildPowersPlansCSR replaced, kept as the reference
// the marker-slice BFS is compared against (TestBuildPowersPlansMatchReference).

// reachExpand returns, for a set of rows, the set of column indices their
// matrix rows reference (including themselves).
func reachExpand(rowPtr []int, col []int32, rows map[int]struct{}) map[int]struct{} {
	out := make(map[int]struct{}, len(rows)*2)
	for i := range rows {
		out[i] = struct{}{}
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			out[int(col[k])] = struct{}{}
		}
	}
	return out
}

// refPowersPlan is one rank's plan in the old row-list form.
type refPowersPlan struct {
	Ghost     []int
	GhostFrom map[int][]int
	Send      map[int][]int
	Extra     [][]int
}

func buildPowersPlansRef(rowPtr []int, col []int32, pt Partition, depth int) []refPowersPlan {
	plans := make([]refPowersPlan, pt.P)
	for r := 0; r < pt.P; r++ {
		lo, hi := pt.Lo(r), pt.Hi(r)
		isLocal := func(i int) bool { return i >= lo && i < hi }

		// reach[j] = rows whose A^{j}·v value this rank must hold.
		// reach[depth] = local rows; expand backwards.
		reach := make([]map[int]struct{}, depth+1)
		reach[depth] = make(map[int]struct{}, hi-lo)
		for i := lo; i < hi; i++ {
			reach[depth][i] = struct{}{}
		}
		for j := depth; j >= 1; j-- {
			reach[j-1] = reachExpand(rowPtr, col, reach[j])
		}

		plan := refPowersPlan{GhostFrom: map[int][]int{}, Send: map[int][]int{}}
		// Ghost values of v (step 0).
		for i := range reach[0] {
			if !isLocal(i) {
				plan.Ghost = append(plan.Ghost, i)
			}
		}
		sort.Ints(plan.Ghost)
		for _, g := range plan.Ghost {
			owner := pt.Owner(g)
			plan.GhostFrom[owner] = append(plan.GhostFrom[owner], g)
		}
		// Redundant rows per step: rows in reach[j] that are off-rank
		// (step j computes A^{j}·v for j = 1..depth; redundant rows only
		// matter for j < depth).
		plan.Extra = make([][]int, depth)
		for j := 1; j < depth; j++ {
			var extra []int
			for i := range reach[j] {
				if !isLocal(i) {
					extra = append(extra, i)
				}
			}
			sort.Ints(extra)
			plan.Extra[j-1] = extra
		}
		plan.Extra[depth-1] = nil
		plans[r] = plan
	}
	// Mirror receive sets into send sets.
	for r := range plans {
		for owner, ghosts := range plans[r].GhostFrom {
			plans[owner].Send[r] = append([]int(nil), ghosts...)
		}
	}
	return plans
}
