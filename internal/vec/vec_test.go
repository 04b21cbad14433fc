package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDotNorm(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("dot = %g", Dot(x, y))
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("norm broken")
	}
}

func TestAxpyAxpby(t *testing.T) {
	y := []float64{1, 1}
	Axpy(y, 2, []float64{3, 4})
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("axpy: %v", y)
	}
	Axpby(y, 1, []float64{1, 1}, 0.5)
	if y[0] != 4.5 || y[1] != 5.5 {
		t.Fatalf("axpby: %v", y)
	}
}

func TestCopySubScaleZero(t *testing.T) {
	d := make([]float64, 3)
	Copy(d, []float64{1, -5, 2})
	if d[0] != 1 || d[1] != -5 || d[2] != 2 {
		t.Fatal("Copy")
	}
	Scale(d, 2)
	if d[1] != -10 {
		t.Fatal("Scale")
	}
	s := make([]float64, 3)
	Sub(s, d, []float64{1, 0, 0})
	if s[0] != 1 || s[1] != -10 {
		t.Fatal("Sub")
	}
	Zero(d)
	if d[0] != 0 || d[1] != 0 || d[2] != 0 {
		t.Fatal("Zero")
	}
}

func TestCopyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Copy(make([]float64, 2), make([]float64, 3))
}

func TestMultiBasics(t *testing.T) {
	m := NewMulti(4, 3)
	if m.N() != 4 || m.S() != 3 {
		t.Fatal("shape")
	}
	m[1][2] = 7
	c := m.Clone()
	c[1][2] = 9
	if m[1][2] != 7 {
		t.Fatal("Clone shares storage")
	}
	var empty Multi
	if empty.N() != 0 {
		t.Fatal("empty N")
	}
	m2 := m.Clone()
	m2.Zero()
	if m2[1][2] != 0 {
		t.Fatal("Multi.Zero")
	}
}

func TestPipelinedUpdate(t *testing.T) {
	n, s := 5, 2
	rng := rand.New(rand.NewSource(2))
	src := NewMulti(n, s)
	dst := NewMulti(n, s)
	ms := make([]Multi, s)
	a := []float64{0.5, -1.5}
	for j := 0; j < s; j++ {
		ms[j] = NewMulti(n, s)
		for i := 0; i < n; i++ {
			src[j][i] = rng.NormFloat64()
			for k := 0; k < s; k++ {
				ms[j][k][i] = rng.NormFloat64()
			}
		}
	}
	PipelinedUpdate(dst, src, ms, a)
	for j := 0; j < s; j++ {
		for i := 0; i < n; i++ {
			want := src[j][i]
			for k := 0; k < s; k++ {
				want -= ms[j][k][i] * a[k]
			}
			if !almostEq(dst[j][i], want, 1e-12) {
				t.Fatalf("mismatch (%d,%d): %g want %g", i, j, dst[j][i], want)
			}
		}
	}
}

func TestGramLocalAndDotsAgainst(t *testing.T) {
	p := Multi{{1, 2}, {3, 4}}
	q := Multi{{1, 0}, {0, 1}, {1, 1}}
	g := make([]float64, 6)
	GramLocal(g, p, q)
	// g[k*3+j] = p[k]·q[j]
	want := []float64{1, 2, 3, 3, 4, 7}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("gram = %v want %v", g, want)
		}
	}
	d := make([]float64, 3)
	DotsAgainst(d, []float64{1, 1}, q)
	if d[0] != 1 || d[1] != 1 || d[2] != 2 {
		t.Fatalf("dots = %v", d)
	}
}

func TestShapePanics(t *testing.T) {
	cases := []func(){
		func() { GramLocal(make([]float64, 3), NewMulti(2, 2), NewMulti(2, 2)) },
		func() { DotsAgainst(make([]float64, 1), make([]float64, 2), NewMulti(2, 2)) },
		func() { PipelinedUpdate(NewMulti(2, 2), NewMulti(2, 1), nil, nil) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// Property: Dot is bilinear.
func TestQuickDotBilinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		z := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i], y[i], z[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		a := rng.NormFloat64()
		comb := make([]float64, n)
		for i := range comb {
			comb[i] = a*x[i] + y[i]
		}
		lhs := Dot(comb, z)
		rhs := a*Dot(x, z) + Dot(y, z)
		scale := 1 + math.Abs(lhs)
		return almostEq(lhs, rhs, 1e-10*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAxpy(b *testing.B) {
	n := 1 << 16
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	b.SetBytes(int64(16 * n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Axpy(y, 1e-9, x)
	}
}

func BenchmarkDot(b *testing.B) {
	n := 1 << 16
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i], y[i] = float64(i), 1/float64(i+1)
	}
	b.SetBytes(int64(16 * n))
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Dot(x, y)
	}
	_ = sink
}

func TestPackUnpackRoundTrip(t *testing.T) {
	cols := [][]float64{{1, 2, 3}, {}, {4}, {5, 6}}
	buf := make([]float64, 6)
	if n := Pack(buf, cols); n != 6 {
		t.Fatalf("Pack length = %d, want 6", n)
	}
	want := []float64{1, 2, 3, 4, 5, 6}
	for i, v := range want {
		if buf[i] != v {
			t.Fatalf("packed[%d] = %v, want %v", i, buf[i], v)
		}
	}
	out := [][]float64{make([]float64, 3), {}, make([]float64, 1), make([]float64, 2)}
	if n := Unpack(out, buf); n != 6 {
		t.Fatalf("Unpack length = %d, want 6", n)
	}
	for j := range cols {
		for i := range cols[j] {
			if out[j][i] != cols[j][i] {
				t.Fatalf("col %d[%d] = %v, want %v", j, i, out[j][i], cols[j][i])
			}
		}
	}
}
