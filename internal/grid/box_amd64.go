package grid

// The AVX2 box kernels of box_amd64.s. x points at the first point's own
// element; every element a kernel reads lies within the table's [lo, hi]
// of a point it applies, which the caller checks.

// boxRunAVX applies n ≥ 4 points of one x-interior run, one point per YMM
// lane: sh's sub5 groups (t.from of its slices), then t's batches and tail.
//
//go:noescape
func boxRunAVX(out, x, iv *float64, sh *boxShape, t *boxTable, scale float64, n int)

// boxPairAVX applies points 0 and 1 through tables ta and tb, neither with
// a sub5 group, one partial sum per YMM lane.
//
//go:noescape
func boxPairAVX(out, x, iv *float64, ta, tb *boxTable, scale float64)
