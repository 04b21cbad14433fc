package sparse

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/par"
)

// tridiag builds a tridiagonal SPD matrix for micro-benchmarks.
func tridiag(n int) *CSR {
	b := NewBuilder(n, n)
	b.Reserve(3 * n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i > 0 {
			b.Add(i, i-1, -1)
		}
		if i+1 < n {
			b.Add(i, i+1, -1)
		}
	}
	return b.Build()
}

// box125 assembles the 125-point (5×5×5 box) Laplacian on an n³ grid, the
// paper's widest stencil and the operator grid.Laplacian builds for Box125:
// 124 on the diagonal, -1 at every in-range neighbor. Boundary rows keep
// fewer entries, so their lengths are not multiples of four and the kernels'
// remainder loops run.
func box125(n int) *CSR {
	b := NewBuilder(n*n*n, n*n*n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				i := (z*n+y)*n + x
				for dz := -2; dz <= 2; dz++ {
					for dy := -2; dy <= 2; dy++ {
						for dx := -2; dx <= 2; dx++ {
							nx, ny, nz := x+dx, y+dy, z+dz
							if nx < 0 || nx >= n || ny < 0 || ny >= n || nz < 0 || nz >= n {
								continue
							}
							v := -1.0
							if dx == 0 && dy == 0 && dz == 0 {
								v = 124
							}
							b.Add(i, (nz*n+ny)*n+nx, v)
						}
					}
				}
			}
		}
	}
	return b.Build()
}

// BenchmarkCSRBox125 times the single- and multi-RHS SPMV on the 125-point
// operator at 20³ and 32³. Bytes are the cost model's per right-hand side —
// 12 per stored entry plus 16 per row (read x, write y) — so MB/s compares
// MulVec and MulMat k=8 on one scale.
func BenchmarkCSRBox125(b *testing.B) {
	for _, n := range []int{20, 32} {
		a := box125(n)
		a.ChunkPlan()
		perRHS := int64(12*a.NNZ() + 16*a.Rows)
		for _, k := range []int{1, 8} {
			xs, ys := randCols(a.Cols, k, int64(n)), randCols(a.Rows, k, 0)
			name := fmt.Sprintf("n=%d/MulMat_k=%d", n, k)
			if k == 1 {
				name = fmt.Sprintf("n=%d/MulVec", n)
			}
			b.Run(name, func(b *testing.B) {
				b.SetBytes(int64(k) * perRHS)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if k == 1 {
						a.MulVec(ys[0], xs[0])
					} else {
						a.MulMat(ys, xs)
					}
				}
			})
		}
	}
}

func BenchmarkSpMVTridiag(b *testing.B) {
	n := 1 << 16
	a := tridiag(n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	b.SetBytes(int64(a.NNZ() * 16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.MulVec(y, x)
	}
}

func BenchmarkSpMVRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 12
	a := randomCSR(rng, n, n, 0.01)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.SetBytes(int64(a.NNZ() * 16))
	for i := 0; i < b.N; i++ {
		a.MulVec(y, x)
	}
}

// BenchmarkSpMVParallel measures the nnz-balanced parallel SPMV on a
// 125-band matrix (the shape of the paper's largest Poisson stencil) across
// pool sizes. The acceptance target is ≥2× at 4+ workers on multicore hosts,
// and no regression at 1 worker versus the serial path.
func BenchmarkSpMVParallel(b *testing.B) {
	n := 1 << 16
	a := bandMatrix(n, 62) // ~125 nnz per interior row, ~8.2M nnz
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	a.ChunkPlan() // build outside the timed region
	workers := []int{1, 2, 4, runtime.NumCPU()}
	defer par.SetWorkers(0)
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			par.SetWorkers(w)
			b.SetBytes(int64(a.NNZ() * 16))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.MulVec(y, x)
			}
		})
	}
}

// BenchmarkBuilderBuild measures Add plus Build on a tridiagonal matrix whose
// rows arrive in scattered order, each row's entries out of column order:
// the counting sort by row, one insertion-sort swap per row and the
// exact-size Col/Val arrays, all O(nnz).
func BenchmarkBuilderBuild(b *testing.B) {
	n := 1 << 17
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bd := NewBuilder(n, n)
		bd.Reserve(3 * n)
		// A multiplicative scatter visits every row once, in no order.
		for j := 0; j < n; j++ {
			i2 := (j * 2654435761) % n
			bd.Add(i2, i2, 2)
			if i2 > 0 {
				bd.Add(i2, i2-1, -1)
			}
			if i2+1 < n {
				bd.Add(i2, i2+1, -1)
			}
		}
		_ = bd.Build()
	}
}

func BenchmarkTranspose(b *testing.B) {
	a := tridiag(1 << 14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Transpose()
	}
}

func BenchmarkGalerkinTripleProduct(b *testing.B) {
	n := 1 << 10
	a := tridiag(n)
	pb := NewBuilder(n, n/2)
	for i := 0; i < n; i++ {
		pb.Add(i, i/2, 1)
	}
	p := pb.Build()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = TripleProduct(p, a)
	}
}
