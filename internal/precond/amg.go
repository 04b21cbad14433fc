package precond

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// AMGOptions tunes the smoothed-aggregation hierarchy.
type AMGOptions struct {
	// Theta is the strength-of-connection threshold: j is a strong
	// neighbor of i when |a_ij| ≥ Theta·√(a_ii·a_jj). Default 0.08.
	Theta float64
	// CoarseSize stops coarsening once a level is this small. Default 400.
	CoarseSize int
	// MaxLevels bounds the hierarchy depth. Default 12.
	MaxLevels int
	// SmoothOmega scales the prolongator smoother (I - ω/λmax·D⁻¹A)·P_tent.
	// Default 2/3.
	SmoothOmega float64
}

func (o *AMGOptions) defaults() {
	if o.Theta <= 0 {
		o.Theta = 0.08
	}
	if o.CoarseSize <= 0 {
		o.CoarseSize = 400
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 12
	}
	if o.SmoothOmega <= 0 {
		o.SmoothOmega = 2.0 / 3.0
	}
}

// NewAMG builds a smoothed-aggregation algebraic multigrid V-cycle for the
// SPD matrix a — the stand-in for PETSc's GAMG in the paper's Fig. 4.
func NewAMG(a *sparse.CSR, opts AMGOptions) (*MG, error) {
	opts.defaults()
	m := &MG{kind: "gamg", nu: 1, omega: 0.8}
	ca := a
	for lvl := 0; lvl < opts.MaxLevels-1 && ca.Rows > opts.CoarseSize; lvl++ {
		agg, nAgg := aggregate(ca, opts.Theta)
		if nAgg >= ca.Rows || nAgg == 0 {
			break // aggregation stalled; stop coarsening
		}
		p := smoothedProlongator(ca, agg, nAgg, opts.SmoothOmega)
		lv := newLevel(ca)
		lv.p = p
		lv.pt = p.Transpose()
		m.levels = append(m.levels, lv)
		ca = sparse.TripleProduct(p, ca)
	}
	m.levels = append(m.levels, newLevel(ca))
	if err := m.finish(); err != nil {
		return nil, fmt.Errorf("amg: %w", err)
	}
	return m, nil
}

// aggregate performs greedy aggregation on the strength graph of a.
// It returns the aggregate id of every node and the aggregate count.
//
// Strength is measured against the row's largest off-diagonal,
// |a_ij| ≥ θ·max_k |a_ik|, which stays meaningful for wide uniform stencils
// (such as the 125-pt operator, where every coupling is small relative to
// the diagonal but all are mutually comparable).
func aggregate(a *sparse.CSR, theta float64) ([]int, int) {
	n := a.Rows
	rowMax := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.Col[k]) != i {
				if v := math.Abs(a.Val[k]); v > rowMax[i] {
					rowMax[i] = v
				}
			}
		}
	}
	strong := func(i, k int) bool {
		if int(a.Col[k]) == i {
			return false
		}
		return math.Abs(a.Val[k]) >= theta*rowMax[i]
	}

	agg := make([]int, n)
	for i := range agg {
		agg[i] = -1
	}
	nAgg := 0

	// Pass 1: seed aggregates from nodes whose strong neighborhood is
	// entirely unaggregated.
	for i := 0; i < n; i++ {
		if agg[i] != -1 {
			continue
		}
		free := true
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if strong(i, k) && agg[a.Col[k]] != -1 {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		agg[i] = nAgg
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if strong(i, k) {
				agg[a.Col[k]] = nAgg
			}
		}
		nAgg++
	}

	// Pass 2: attach stragglers to the strongest neighboring aggregate.
	for i := 0; i < n; i++ {
		if agg[i] != -1 {
			continue
		}
		best, bestW := -1, 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := int(a.Col[k])
			if j != i && agg[j] != -1 && math.Abs(a.Val[k]) > bestW {
				best, bestW = agg[j], math.Abs(a.Val[k])
			}
		}
		if best != -1 {
			agg[i] = best
		}
	}

	// Pass 3: remaining isolated nodes become singleton aggregates.
	for i := 0; i < n; i++ {
		if agg[i] == -1 {
			agg[i] = nAgg
			nAgg++
		}
	}
	return agg, nAgg
}

// smoothedProlongator builds P = (I - ω/λ·D⁻¹A)·P_tent where P_tent is the
// normalized piecewise-constant tentative prolongator of the aggregation.
func smoothedProlongator(a *sparse.CSR, agg []int, nAgg int, omega float64) *sparse.CSR {
	n := a.Rows
	// Column norms of the tentative prolongator: √(aggregate size).
	size := make([]int, nAgg)
	for _, g := range agg {
		size[g]++
	}
	// Tentative prolongator in CSR (one entry per row).
	tb := &sparse.CSR{Rows: n, Cols: nAgg,
		RowPtr: make([]int, n+1), Col: make([]int32, n), Val: make([]float64, n)}
	for i := 0; i < n; i++ {
		tb.RowPtr[i+1] = i + 1
		tb.Col[i] = int32(agg[i])
		tb.Val[i] = 1 / math.Sqrt(float64(size[agg[i]]))
	}

	// λmax(D⁻¹A) bound via Gershgorin on the scaled operator.
	diag := a.Diag()
	lmax := 0.0
	for i := 0; i < n; i++ {
		var rowAbs float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			rowAbs += math.Abs(a.Val[k])
		}
		d := diag[i]
		if d == 0 {
			d = 1
		}
		if v := rowAbs / math.Abs(d); v > lmax {
			lmax = v
		}
	}
	if lmax == 0 {
		lmax = 1
	}

	// S = I - (ω/λmax)·D⁻¹·A, formed directly in CSR.
	sb := sparse.NewBuilder(n, n)
	sb.Reserve(a.NNZ())
	scale := omega / lmax
	for i := 0; i < n; i++ {
		d := diag[i]
		if d == 0 {
			d = 1
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := int(a.Col[k])
			v := -scale * a.Val[k] / d
			if j == i {
				v += 1
			}
			sb.Add(i, j, v)
		}
	}
	return sparse.Mul(sb.Build(), tb)
}
