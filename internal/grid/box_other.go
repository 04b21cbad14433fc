//go:build !amd64

package grid

// Without amd64 assembly sub5 and boxTable.pass run every point; the stubs
// are never called.

func boxRunAVX(out, x, iv *float64, sh *boxShape, t *boxTable, scale float64, n int) {
	panic("grid: no AVX2")
}

func boxPairAVX(out, x, iv *float64, ta, tb *boxTable, scale float64) {
	panic("grid: no AVX2")
}
