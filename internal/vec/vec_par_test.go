package vec

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/par"
)

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func randMulti(rng *rand.Rand, n, s int) Multi {
	m := NewMulti(n, s)
	for j := 0; j < s; j++ {
		for i := 0; i < n; i++ {
			m[j][i] = rng.NormFloat64()
		}
	}
	return m
}

// TestDotDeterministicAcrossWorkers asserts the acceptance criterion:
// parallel Dot is bit-identical across repeated runs and worker counts.
func TestDotDeterministicAcrossWorkers(t *testing.T) {
	defer par.SetWorkers(0)
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 100, 4096, 4097, 50000, 262144} {
		x, y := randVec(rng, n), randVec(rng, n)
		par.SetWorkers(1)
		ref := Dot(x, y)
		for _, w := range []int{1, 2, 3, 4, 8} {
			par.SetWorkers(w)
			for rep := 0; rep < 3; rep++ {
				if got := Dot(x, y); got != ref {
					t.Fatalf("n=%d w=%d rep=%d: %x != %x", n, w, rep, got, ref)
				}
			}
		}
	}
}

// TestGramLocalDeterministicAcrossWorkers: same guarantee for the blocked
// Gram kernel, including the symmetric (aliased) path.
func TestGramLocalDeterministicAcrossWorkers(t *testing.T) {
	defer par.SetWorkers(0)
	rng := rand.New(rand.NewSource(4))
	n, s := 100000, 3
	p := randMulti(rng, n, s)
	q := randMulti(rng, n, s)
	ref := make([]float64, s*s)
	refSym := make([]float64, s*s)
	par.SetWorkers(1)
	GramLocal(ref, p, q)
	GramLocal(refSym, p, p)
	got := make([]float64, s*s)
	for _, w := range []int{1, 2, 4, 8} {
		par.SetWorkers(w)
		GramLocal(got, p, q)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("w=%d entry %d: %x != %x", w, i, got[i], ref[i])
			}
		}
		GramLocal(got, p, p)
		for i := range got {
			if got[i] != refSym[i] {
				t.Fatalf("w=%d sym entry %d: %x != %x", w, i, got[i], refSym[i])
			}
		}
	}
}

// TestGramLocalSymmetricPathMatchesGeneral: the mirrored upper-triangle
// computation must agree with the general path entry for entry.
func TestGramLocalSymmetricPathMatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, s := 30000, 4
	p := randMulti(rng, n, s)
	sym := make([]float64, s*s)
	GramLocal(sym, p, p)
	// Force the general path with a distinct but equal-valued block.
	q := p.Clone()
	gen := make([]float64, s*s)
	GramLocal(gen, p, q)
	for k := 0; k < s; k++ {
		for j := 0; j < s; j++ {
			if sym[k*s+j] != gen[k*s+j] {
				t.Fatalf("(%d,%d): sym %x != gen %x", k, j, sym[k*s+j], gen[k*s+j])
			}
			if sym[k*s+j] != sym[j*s+k] {
				t.Fatalf("(%d,%d): not symmetric", k, j)
			}
		}
	}
}

// TestDotsAgainstDeterministicAcrossWorkers covers the fused multi-dot.
func TestDotsAgainstDeterministicAcrossWorkers(t *testing.T) {
	defer par.SetWorkers(0)
	rng := rand.New(rand.NewSource(6))
	n, s := 70000, 5
	x := randVec(rng, n)
	q := randMulti(rng, n, s)
	ref := make([]float64, s)
	par.SetWorkers(1)
	DotsAgainst(ref, x, q)
	got := make([]float64, s)
	for _, w := range []int{2, 4, 8} {
		par.SetWorkers(w)
		DotsAgainst(got, x, q)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("w=%d col %d: %x != %x", w, i, got[i], ref[i])
			}
		}
	}
}

// TestAxpyLongVector exercises the parallel axpy path (beyond one grain).
func TestAxpyLongVector(t *testing.T) {
	n := 3*par.Grain() + 17
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 11)
		y[i] = 1
	}
	Axpy(y, 2, x)
	for i := range y {
		if y[i] != 1+2*float64(i%11) {
			t.Fatalf("y[%d] = %g", i, y[i])
		}
	}
	Axpby(y, 1, y, 0) // y = y
	Scale(y, 0.5)
	if y[1] != (1+2)/2.0 {
		t.Fatalf("scale: %g", y[1])
	}
}

func TestMulInto(t *testing.T) {
	x := []float64{1, 2, 3}
	w := []float64{2, 0.5, -1}
	dst := make([]float64, 3)
	MulInto(dst, x, w)
	if dst[0] != 2 || dst[1] != 1 || dst[2] != -3 {
		t.Fatalf("MulInto = %v", dst)
	}
	MulInto(x, x, w) // aliased
	if x[0] != 2 || x[1] != 1 || x[2] != -3 {
		t.Fatalf("aliased MulInto = %v", x)
	}
}

// BenchmarkGramParallel measures the blocked Gram kernel across pool sizes
// on an s=3 block of paper-scale local length.
func BenchmarkGramParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n, s := 1<<20, 3
	p := randMulti(rng, n, s)
	dst := make([]float64, s*s)
	defer par.SetWorkers(0)
	for _, w := range []int{1, 2, 4, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			par.SetWorkers(w)
			b.SetBytes(int64(8 * n * s)) // the block is read once per Gram
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GramLocal(dst, p, p)
			}
		})
	}
}

func BenchmarkDotParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 1 << 21
	x, y := randVec(rng, n), randVec(rng, n)
	defer par.SetWorkers(0)
	var sink float64
	for _, w := range []int{1, 2, 4, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			par.SetWorkers(w)
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				sink += Dot(x, y)
			}
		})
	}
	_ = sink
}
