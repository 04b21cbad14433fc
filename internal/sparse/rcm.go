package sparse

import (
	"cmp"
	"slices"
)

// RCMOrder returns the reverse Cuthill–McKee ordering of A's symmetric
// sparsity graph as a permutation with perm[new] = old. The ordering is
// deterministic: each component starts from a pseudo-peripheral vertex found
// by repeated BFS from the minimum-degree unvisited vertex (ties broken by
// index), BFS neighbors are visited in (degree, index) order, and the final
// Cuthill–McKee order is reversed as a whole.
//
// RCM clusters each row's neighbors near the diagonal, which shrinks the
// matrix bandwidth — and with it both the SPMV working set and the halo
// volume of contiguous row-block partitions.
func RCMOrder(a *CSR) []int {
	n := a.Rows
	// Degree excludes the diagonal so it reflects true adjacency.
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		d := 0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.Col[k]) != i {
				d++
			}
		}
		deg[i] = d
	}

	visited := make([]bool, n)
	order := make([]int, 0, n)
	// Scratch reused across BFS sweeps.
	level := make([]int, 0, n)
	inLevel := make([]bool, n)

	// bfs runs a Cuthill–McKee BFS from start over unvisited vertices,
	// appending to dst and marking seen. Neighbors enqueue in ascending
	// (degree, index) order. Returns the vertices reached.
	bfs := func(start int, dst []int, seen []bool) []int {
		head := len(dst)
		dst = append(dst, start)
		seen[start] = true
		for head < len(dst) {
			v := dst[head]
			head++
			level = level[:0]
			for k := a.RowPtr[v]; k < a.RowPtr[v+1]; k++ {
				c := int(a.Col[k])
				if c == v || c >= n || seen[c] {
					continue
				}
				seen[c] = true
				level = append(level, c)
			}
			slices.SortFunc(level, func(u, w int) int {
				if c := cmp.Compare(deg[u], deg[w]); c != 0 {
					return c
				}
				return cmp.Compare(u, w)
			})
			dst = append(dst, level...)
		}
		return dst
	}

	// levelBFS runs a plain BFS from start over unvisited vertices, using
	// inLevel as its scratch seen-set, and returns the visit order, the
	// index where the deepest level begins, and the eccentricity (depth).
	queue := make([]int, 0, n)
	levelBFS := func(start int) (q []int, lastStart, depth int) {
		seen := inLevel
		copy(seen, visited)
		q = append(queue[:0], start)
		seen[start] = true
		levelStart := 0
		for {
			levelEnd := len(q)
			for h := levelStart; h < levelEnd; h++ {
				v := q[h]
				for k := a.RowPtr[v]; k < a.RowPtr[v+1]; k++ {
					c := int(a.Col[k])
					if c == v || c >= n || seen[c] {
						continue
					}
					seen[c] = true
					q = append(q, c)
				}
			}
			if len(q) == levelEnd {
				return q, levelStart, depth
			}
			levelStart = levelEnd
			depth++
		}
	}

	// pseudoPeripheral walks to a vertex of (locally) maximal eccentricity:
	// BFS from the candidate, take a minimum-degree vertex of the deepest
	// level, repeat while the eccentricity grows (George & Liu).
	pseudoPeripheral := func(start int) int {
		cur := start
		ecc := -1
		for {
			q, lastStart, depth := levelBFS(cur)
			if depth <= ecc {
				return cur
			}
			ecc = depth
			best := q[lastStart]
			for _, v := range q[lastStart:] {
				if deg[v] < deg[best] || (deg[v] == deg[best] && v < best) {
					best = v
				}
			}
			cur = best
		}
	}

	for {
		// Minimum-degree unvisited start (ties by index).
		start := -1
		for i := 0; i < n; i++ {
			if !visited[i] && (start == -1 || deg[i] < deg[start]) {
				start = i
			}
		}
		if start == -1 {
			break
		}
		start = pseudoPeripheral(start)
		order = bfs(start, order, visited)
	}

	// Reverse: reverse Cuthill–McKee.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// InversePerm returns inv with inv[perm[i]] = i.
func InversePerm(perm []int) []int {
	inv := make([]int, len(perm))
	for i, p := range perm {
		inv[p] = i
	}
	return inv
}

// PermuteSym returns P·A·Pᵀ for the permutation perm (perm[new] = old):
// B[i][j] = A[perm[i]][perm[j]]. Each permuted row is written straight into
// exact-size arrays and sorted in place with SortRow, so the result is a
// valid CSR matrix built in O(nnz).
func PermuteSym(a *CSR, perm []int) *CSR {
	if a.Rows != a.Cols || len(perm) != a.Rows {
		panic("sparse: PermuteSym needs a square matrix and a full permutation")
	}
	inv := InversePerm(perm)
	n := a.Rows
	b := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1),
		Col: make([]int32, a.NNZ()), Val: make([]float64, a.NNZ())}
	p := 0
	for i, old := range perm {
		lo := p
		for k := a.RowPtr[old]; k < a.RowPtr[old+1]; k++ {
			b.Col[p], b.Val[p] = int32(inv[a.Col[k]]), a.Val[k]
			p++
		}
		SortRow(b.Col[lo:p], b.Val[lo:p])
		b.RowPtr[i+1] = p
	}
	return b
}

// PermuteVec gathers src into the permuted ordering: dst[i] = src[perm[i]].
func PermuteVec(dst, src []float64, perm []int) {
	if len(dst) != len(perm) || len(src) != len(perm) {
		panic("sparse: PermuteVec length mismatch")
	}
	for i, p := range perm {
		dst[i] = src[p]
	}
}

// InversePermuteVec scatters src back to the original ordering:
// dst[perm[i]] = src[i]. It inverts PermuteVec.
func InversePermuteVec(dst, src []float64, perm []int) {
	if len(dst) != len(perm) || len(src) != len(perm) {
		panic("sparse: InversePermuteVec length mismatch")
	}
	for i, p := range perm {
		dst[p] = src[i]
	}
}

// Bandwidth returns max_i max_{j : a_ij != structural zero} |i - j|, the
// metric RCM minimizes. Zero for diagonal (or empty) matrices.
func (a *CSR) Bandwidth() int {
	bw := 0
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d := i - int(a.Col[k])
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}
