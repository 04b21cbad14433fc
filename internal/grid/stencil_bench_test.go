package grid

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/par"
	"repro/internal/vec"
)

func benchVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// BenchmarkSpMV3D compares the assembled CSR product against the
// matrix-free Star7 stencil kernel on the same operator.
func BenchmarkSpMV3D(b *testing.B) {
	g := NewCube(48, Star7)
	a := g.Laplacian()
	op, ok := g.MatrixFree()
	if !ok {
		b.Fatal("no matrix-free operator")
	}
	x := benchVec(a.Rows, 1)
	y := make([]float64, a.Rows)
	b.Run("csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.MulVec(y, x)
		}
	})
	b.Run("stencil", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			op.MulVec(y, x)
		}
	})
}

// BenchmarkSpMV2D is the 2D Star5 counterpart.
func BenchmarkSpMV2D(b *testing.B) {
	g := NewSquare(320, Star5)
	a := g.Laplacian()
	op, ok := g.MatrixFree()
	if !ok {
		b.Fatal("no matrix-free operator")
	}
	x := benchVec(a.Rows, 2)
	y := make([]float64, a.Rows)
	b.Run("csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.MulVec(y, x)
		}
	})
	b.Run("stencil", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			op.MulVec(y, x)
		}
	})
}

// BenchmarkLaplacian measures assembly of the paper's 125-point operator at
// the solve_spmv benchmark size and of the 7-point operator at the
// solve_vector size: one pass over the grid writing each row in column order.
func BenchmarkLaplacian(b *testing.B) {
	for _, g := range []Grid{NewCube(32, Box125), NewCube(48, Star7)} {
		b.Run(fmt.Sprintf("%v-%d", g.Stencil, g.Nx), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = g.Laplacian()
			}
		})
	}
}

// BenchmarkPowersStep measures one monomial powers-block step — y = A·x/σ
// plus the two moment dots the s-step payload needs from it — as the three
// separate sweeps the solver used to issue versus the fused kernel.
func BenchmarkPowersStep(b *testing.B) {
	g := NewCube(48, Star7)
	op, ok := g.MatrixFree()
	if !ok {
		b.Fatal("no matrix-free operator")
	}
	n, _ := op.Dims()
	x := benchVec(n, 3)
	y := make([]float64, n)
	const scale = 1 / 1.25
	dots := make([]float64, 2)
	b.Run("separate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			op.MulVec(y, x)
			vec.Scale(y, scale)
			dots[0] = vec.Dot(x, y)
			dots[1] = vec.Dot(y, y)
		}
	})
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			op.MulVecFused(y, x, 0, n, 0, scale, [][]float64{x, nil}, dots)
		}
	})
}

// BenchmarkBasisVector measures one preconditioned basis vector u' = M⁻¹·A·u
// under Jacobi on the solve_vector operator: the product's pass plus the
// PC's pass through a scratch r, against the product with M⁻¹ folded into
// its write-back. MB/s counts the bytes the folded pass must touch per row
// (read u and M⁻¹'s diagonal, write u'), so the two rows compare as rates
// of the same useful work.
func BenchmarkBasisVector(b *testing.B) {
	g := NewCube(48, Star7)
	op, ok := g.MatrixFree()
	if !ok {
		b.Fatal("no matrix-free operator")
	}
	n, _ := op.Dims()
	x := benchVec(n, 4)
	r := make([]float64, n)
	u := make([]float64, n)
	inv := make([]float64, n)
	for i := range inv {
		inv[i] = 1 / op.diag
	}
	b.Run("product+pc", func(b *testing.B) {
		b.SetBytes(int64(24 * n))
		for i := 0; i < b.N; i++ {
			op.MulVec(r, x)
			vec.MulInto(u, r, inv)
		}
	})
	b.Run("folded", func(b *testing.B) {
		b.SetBytes(int64(24 * n))
		for i := 0; i < b.N; i++ {
			op.MulVecFusedDiag(u, x, 0, n, 0, 1, inv, nil, nil)
		}
	})
}

// BenchmarkBox125 times the paper's 125-point operator through the
// assembled CSR and the matrix-free box kernel, single-RHS (MulVec) and as
// a k=8 block (MulMat), at 12³, 20³ and 32³, plus the 27-point operator at
// 20³; each on the default pool and on one worker (w=1), where the kernel
// shows apart from the pool. The stencil side runs the four-wide kernels
// when the CPU has AVX2, and stencil-go the Go loops they replace. Bytes
// are the CSR's per right-hand side — 12 per stored entry plus 16 per row —
// on every side, so MB/s reads as the CSR-equivalent rate and the rows
// compare directly.
func BenchmarkBox125(b *testing.B) {
	defer par.SetWorkers(par.Default().Workers())
	workers := []int{par.Default().Workers()}
	if workers[0] > 1 {
		workers = append(workers, 1)
	}
	grids := []Grid{NewCube(12, Box125), NewCube(20, Box125), NewCube(32, Box125), NewCube(20, Box27)}
	for _, g := range grids {
		a := g.Laplacian()
		op, ok := g.MatrixFree()
		if !ok {
			b.Fatal("no matrix-free operator")
		}
		a.ChunkPlan()
		op.ChunkPlan()
		perRHS := int64(12*a.NNZ() + 16*a.Rows)
		for _, k := range []int{1, 8} {
			xs, ys := make([][]float64, k), make([][]float64, k)
			for j := range xs {
				xs[j], ys[j] = benchVec(a.Rows, int64(j+5)), make([]float64, a.Rows)
			}
			for _, side := range []struct {
				name string
				avx  bool
				vec  func(y, x []float64)
				mat  func(ys, xs [][]float64)
			}{{"csr", useAVX2, a.MulVec, a.MulMat}, {"stencil", useAVX2, op.MulVec, op.MulMat},
				{"stencil-go", false, op.MulVec, op.MulMat}} {
				if side.name == "stencil-go" && !useAVX2 {
					continue
				}
				for _, w := range workers {
					b.Run(fmt.Sprintf("%v/n=%d/k=%d/w=%d/%s", g.Stencil, g.Nx, k, w, side.name), func(b *testing.B) {
						defer func(v bool) { useAVX2 = v }(useAVX2)
						useAVX2 = side.avx
						par.SetWorkers(w)
						b.SetBytes(int64(k) * perRHS)
						for i := 0; i < b.N; i++ {
							if k == 1 {
								side.vec(ys[0], xs[0])
							} else {
								side.mat(ys, xs)
							}
						}
					})
				}
			}
		}
	}
}

// BenchmarkStar7Lines times the fused Star7 product with a scale and a
// diagonal row scale folded in — the one-space s-step basis vector — on one
// worker at 16³, 24³, 32³ and 48³, reported in ns per row. The small cubes
// are mostly boundary lines and line ends, so this is the benchmark of the
// term-list path as much as of the interior line kernel.
func BenchmarkStar7Lines(b *testing.B) {
	defer par.SetWorkers(0)
	par.SetWorkers(1)
	for _, n := range []int{16, 24, 32, 48} {
		op, ok := NewCube(n, Star7).MatrixFree()
		if !ok {
			b.Fatal("no matrix-free operator")
		}
		rows, _ := op.Dims()
		x, y := benchVec(rows, 6), make([]float64, rows)
		inv := make([]float64, rows)
		for i := range inv {
			inv[i] = 1 / op.diag
		}
		op.ChunkPlan()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op.MulVecFusedDiag(y, x, 0, rows, 0, 0.8, inv, nil, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// BenchmarkLine7 times the Star7 line kernel alone on one run of 512 rows
// (a sweep tile) and of 4 096 rows, with and without the diagonal row
// scale, on the four-wide kernel and on the Go loop it replaces, in ns per
// row. The neighbour planes sit ±4 096 rows away, as on a 64² plane.
func BenchmarkLine7(b *testing.B) {
	const nx, nxy = 64, 4096
	for _, n := range []int{512, 4096} {
		x := benchVec(n+2*nxy, 7)
		y := make([]float64, n)
		inv := benchVec(n, 8)
		for _, withInv := range []bool{false, true} {
			var iv []float64
			if withInv {
				iv = inv
			}
			for _, path := range []struct {
				name string
				avx  bool
			}{{"avx2", true}, {"go", false}} {
				if path.avx && !vec.AVX2() {
					continue
				}
				b.Run(fmt.Sprintf("n=%d/inv=%v/%s", n, withInv, path.name), func(b *testing.B) {
					defer func(v bool) { useAVX2 = v }(useAVX2)
					useAVX2 = path.avx
					for i := 0; i < b.N; i++ {
						line7(y, x, nxy, nxy+n, nxy, nx, nxy, 6, 0.8, iv)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
				})
			}
		}
	}
}
