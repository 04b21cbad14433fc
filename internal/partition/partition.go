// Package partition implements 1D row-block partitioning of sparse matrices
// across ranks, the halo (ghost column) plans the distributed SPMV needs,
// and the per-rank statistics the virtual-clock cost model prices.
package partition

import (
	"fmt"
	"sort"

	"repro/internal/sparse"
)

// Partition assigns contiguous row blocks to P ranks: rank r owns rows
// [Bounds[r], Bounds[r+1]).
type Partition struct {
	N, P   int
	Bounds []int // len P+1, Bounds[0]=0, Bounds[P]=N, non-decreasing
}

// RowBlock splits n rows into p blocks of near-equal row count.
func RowBlock(n, p int) Partition {
	if p < 1 || n < 0 {
		panic(fmt.Sprintf("partition: bad RowBlock(%d, %d)", n, p))
	}
	b := make([]int, p+1)
	for r := 0; r <= p; r++ {
		b[r] = r * n / p
	}
	return Partition{N: n, P: p, Bounds: b}
}

// RowBlockByNNZ splits the rows of a into p contiguous blocks with
// near-equal nonzero counts, the load balance a real distribution would use
// for matrices with uneven rows.
func RowBlockByNNZ(a *sparse.CSR, p int) Partition {
	if p < 1 {
		panic("partition: p must be positive")
	}
	n := a.Rows
	total := a.NNZ()
	b := make([]int, p+1)
	b[p] = n
	row := 0
	for r := 1; r < p; r++ {
		target := total * r / p
		for row < n && a.RowPtr[row+1] < target {
			row++
		}
		if row < b[r-1] {
			row = b[r-1] // bounds stay monotone; blocks may be empty
		}
		b[r] = row
	}
	return Partition{N: n, P: p, Bounds: b}
}

// Lo returns the first row of rank r.
func (pt Partition) Lo(r int) int { return pt.Bounds[r] }

// Hi returns one past the last row of rank r.
func (pt Partition) Hi(r int) int { return pt.Bounds[r+1] }

// Rows returns the number of rows rank r owns.
func (pt Partition) Rows(r int) int { return pt.Bounds[r+1] - pt.Bounds[r] }

// Owner returns the rank owning the given row.
func (pt Partition) Owner(row int) int {
	if row < 0 || row >= pt.N {
		panic(fmt.Sprintf("partition: row %d out of range [0,%d)", row, pt.N))
	}
	// Bounds is sorted; find the last bound ≤ row.
	r := sort.SearchInts(pt.Bounds, row+1) - 1
	// Skip over empty blocks that share the same bound.
	for pt.Bounds[r+1] == pt.Bounds[r] {
		r++
	}
	return r
}

// Stats summarizes the per-rank load and communication surface of a
// partition for one matrix; the simulator prices kernels from these.
type Stats struct {
	MaxRows      int // rows on the most loaded rank
	MaxNNZ       int // nonzeros on the most loaded rank
	MaxHaloCols  int // largest number of off-rank columns any rank reads
	MaxNeighbors int // largest number of distinct ranks any rank talks to

	// TotalHaloCols is the halo volume: the sum over all ranks of the
	// distinct off-rank columns each reads — the edge-cut proxy a row
	// reordering (e.g. RCM) shrinks. Filled by ComputeStats; analytic
	// GridSpec stats leave it zero.
	TotalHaloCols int
}

// ComputeStats scans the matrix once and returns the partition statistics.
func ComputeStats(a *sparse.CSR, pt Partition) Stats {
	var st Stats
	seenHalo := make(map[int]struct{})
	seenNbr := make(map[int]struct{})
	for r := 0; r < pt.P; r++ {
		lo, hi := pt.Lo(r), pt.Hi(r)
		rows := hi - lo
		nnz := a.RowPtr[hi] - a.RowPtr[lo]
		clear(seenHalo)
		clear(seenNbr)
		for k := a.RowPtr[lo]; k < a.RowPtr[hi]; k++ {
			c := int(a.Col[k])
			if c < lo || c >= hi {
				if _, ok := seenHalo[c]; !ok {
					seenHalo[c] = struct{}{}
					seenNbr[pt.Owner(c)] = struct{}{}
				}
			}
		}
		if rows > st.MaxRows {
			st.MaxRows = rows
		}
		if nnz > st.MaxNNZ {
			st.MaxNNZ = nnz
		}
		if len(seenHalo) > st.MaxHaloCols {
			st.MaxHaloCols = len(seenHalo)
		}
		if len(seenNbr) > st.MaxNeighbors {
			st.MaxNeighbors = len(seenNbr)
		}
		st.TotalHaloCols += len(seenHalo)
	}
	return st
}

// Halo describes one rank's ghost-exchange plan for the distributed SPMV:
// which columns it must receive from which neighbors, and which of its own
// rows it must send to whom. Send plans mirror receive plans: rank a sends
// to b exactly the columns b receives from a.
type Halo struct {
	// Recv[nbr] lists the global column indices this rank needs from nbr,
	// sorted ascending.
	Recv map[int][]int
	// Send[nbr] lists the global row indices this rank must send to nbr,
	// sorted ascending.
	Send map[int][]int
}

// BuildHalos computes the halo plan of every rank for matrix a under pt.
func BuildHalos(a *sparse.CSR, pt Partition) []Halo {
	halos := make([]Halo, pt.P)
	for r := range halos {
		halos[r].Recv = map[int][]int{}
		halos[r].Send = map[int][]int{}
	}
	for r := 0; r < pt.P; r++ {
		lo, hi := pt.Lo(r), pt.Hi(r)
		need := map[int]struct{}{}
		for k := a.RowPtr[lo]; k < a.RowPtr[hi]; k++ {
			c := int(a.Col[k])
			if c < lo || c >= hi {
				need[c] = struct{}{}
			}
		}
		cols := make([]int, 0, len(need))
		for c := range need {
			cols = append(cols, c)
		}
		sort.Ints(cols)
		for _, c := range cols {
			owner := pt.Owner(c)
			halos[r].Recv[owner] = append(halos[r].Recv[owner], c)
			halos[owner].Send[r] = append(halos[owner].Send[r], c)
		}
	}
	return halos
}
