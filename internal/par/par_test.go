package par

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNumChunksPureFunctionOfN(t *testing.T) {
	if NumChunks(0) != 0 || NumChunks(-3) != 0 {
		t.Fatal("empty regions must have zero chunks")
	}
	if NumChunks(1) != 1 || NumChunks(Grain()) != 1 {
		t.Fatal("at most one grain of work must be a single chunk")
	}
	if NumChunks(Grain()+1) != 2 {
		t.Fatal("just over one grain must split")
	}
	if NumChunks(1<<30) != maxChunks {
		t.Fatal("chunk count must be capped")
	}
}

func TestChunkBoundsCoverExactly(t *testing.T) {
	for _, n := range []int{1, 7, 4096, 4097, 100000, 1 << 21} {
		nc := NumChunks(n)
		prev := 0
		for c := 0; c < nc; c++ {
			lo, hi := ChunkBounds(n, nc, c)
			if lo != prev || hi < lo {
				t.Fatalf("n=%d chunk %d: [%d,%d) after %d", n, c, lo, hi, prev)
			}
			prev = hi
		}
		if prev != n {
			t.Fatalf("n=%d: chunks end at %d", n, prev)
		}
	}
}

func TestSetGrain(t *testing.T) {
	defer SetGrain(0)
	SetGrain(10)
	if Grain() != 10 || NumChunks(25) != 3 {
		t.Fatalf("grain=%d chunks=%d", Grain(), NumChunks(25))
	}
	SetGrain(0)
	if Grain() != 4096 {
		t.Fatal("SetGrain(0) must restore the default")
	}
}

// TestRangeCoversEveryIndexOnce checks the parallel-for contract at several
// pool sizes.
func TestRangeCoversEveryIndexOnce(t *testing.T) {
	const n = 10000
	defer SetGrain(0)
	SetGrain(128) // force many chunks
	for _, w := range []int{1, 2, 3, 8} {
		p := NewPool(w)
		hits := make([]int32, n)
		p.Range(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("w=%d: index %d visited %d times", w, i, h)
			}
		}
		p.Stop()
	}
}

func TestForChunksMoreChunksThanWorkers(t *testing.T) {
	p := NewPool(3)
	defer p.Stop()
	var count atomic.Int64
	p.ForChunks(57, func(c int) { count.Add(int64(c)) })
	if count.Load() != 57*56/2 {
		t.Fatalf("sum of chunk ids = %d", count.Load())
	}
}

// TestRangeReduceChunkIndexAndEmptyDst: the body is told which chunk it
// runs (its index matches its bounds, each chunk once), and a reduction with
// nothing to reduce still runs the body over every chunk — vec.Sweep relies
// on both for its per-chunk scratch and its LC-only passes.
func TestRangeReduceChunkIndexAndEmptyDst(t *testing.T) {
	defer SetGrain(0)
	SetGrain(10)
	n := 1234
	nc := NumChunks(n)
	for _, w := range []int{1, 4} {
		p := NewPool(w)
		seen := make([]atomic.Int64, nc)
		p.RangeReduce(nil, n, func(c, lo, hi int, out []float64) {
			wlo, whi := ChunkBounds(n, nc, c)
			if lo != wlo || hi != whi || len(out) != 0 {
				t.Errorf("workers=%d chunk %d: got [%d,%d) len(out)=%d, want [%d,%d) and 0", w, c, lo, hi, len(out), wlo, whi)
			}
			seen[c].Add(1)
		})
		for c := range seen {
			if seen[c].Load() != 1 {
				t.Errorf("workers=%d: chunk %d ran %d times", w, c, seen[c].Load())
			}
		}
		p.Stop()
	}
}

func TestRangeReduceMatchesSerialSum(t *testing.T) {
	defer SetGrain(0)
	SetGrain(100)
	rng := rand.New(rand.NewSource(7))
	n := 34567
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	p := NewPool(4)
	defer p.Stop()
	var got [1]float64
	p.RangeReduce(got[:], n, func(_, lo, hi int, out []float64) {
		var s float64
		for i := lo; i < hi; i++ {
			s += x[i]
		}
		out[0] += s
	})
	// Reference: the same chunked association, serial.
	var want float64
	nc := NumChunks(n)
	for c := 0; c < nc; c++ {
		lo, hi := ChunkBounds(n, nc, c)
		var s float64
		for i := lo; i < hi; i++ {
			s += x[i]
		}
		want += s
	}
	if got[0] != want {
		t.Fatalf("got %x want %x", got[0], want)
	}
}

// TestRangeReduceDeterministicAcrossWorkers is the core guarantee: identical
// bits for every pool size and across repeated runs.
func TestRangeReduceDeterministicAcrossWorkers(t *testing.T) {
	defer SetGrain(0)
	SetGrain(64)
	rng := rand.New(rand.NewSource(42))
	n := 12345
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	dot := func(p *Pool) float64 {
		var out [1]float64
		p.RangeReduce(out[:], n, func(_, lo, hi int, out []float64) {
			var s float64
			for i := lo; i < hi; i++ {
				s += x[i] * y[i]
			}
			out[0] += s
		})
		return out[0]
	}
	p1 := NewPool(1)
	defer p1.Stop()
	ref := dot(p1)
	for _, w := range []int{1, 2, 3, 5, 8, 16} {
		p := NewPool(w)
		for rep := 0; rep < 5; rep++ {
			if got := dot(p); got != ref {
				t.Fatalf("w=%d rep=%d: %x != %x", w, rep, got, ref)
			}
		}
		p.Stop()
	}
}

// TestConcurrentRegions hammers one shared pool from several goroutines —
// the comm.Engine usage pattern (R ranks × shared pool). Run under -race.
func TestConcurrentRegions(t *testing.T) {
	defer SetGrain(0)
	SetGrain(32)
	p := NewPool(4)
	defer p.Stop()
	const ranks = 6
	const n = 5000
	var wg sync.WaitGroup
	results := make([]float64, ranks)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			x := make([]float64, n)
			for i := range x {
				x[i] = float64((i*r)%13) - 6
			}
			for rep := 0; rep < 20; rep++ {
				var out [1]float64
				p.RangeReduce(out[:], n, func(_, lo, hi int, o []float64) {
					var s float64
					for i := lo; i < hi; i++ {
						s += x[i]
					}
					o[0] += s
				})
				if rep == 0 {
					results[r] = out[0]
				} else if results[r] != out[0] {
					t.Errorf("rank %d: result changed across reps", r)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestStoppedPoolDegradesToSerial: a stale reference across SetWorkers must
// keep working (serially) rather than deadlock.
func TestStoppedPoolDegradesToSerial(t *testing.T) {
	defer SetGrain(0)
	SetGrain(8)
	p := NewPool(4)
	p.Stop()
	var out [1]float64
	p.RangeReduce(out[:], 1000, func(_, lo, hi int, o []float64) {
		o[0] += float64(hi - lo)
	})
	if out[0] != 1000 {
		t.Fatalf("stopped pool reduced %g", out[0])
	}
	hits := 0
	p.Range(100, func(lo, hi int) { hits += hi - lo })
	if hits != 100 {
		t.Fatalf("stopped pool ranged %d", hits)
	}
}

func TestSetWorkersResizesSharedPool(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("workers = %d", Workers())
	}
	old := Default()
	SetWorkers(5)
	if Workers() != 5 {
		t.Fatalf("workers = %d", Workers())
	}
	// The stale reference still completes regions.
	sum := 0
	old.ForChunks(10, func(c int) { sum += 1 })
	_ = sum
}

func TestEmptyRegions(t *testing.T) {
	p := NewPool(2)
	defer p.Stop()
	p.Range(0, func(lo, hi int) { t.Fatal("body ran for empty range") })
	p.ForChunks(0, func(c int) { t.Fatal("body ran for zero chunks") })
	var out []float64
	p.RangeReduce(out, 100, func(_, lo, hi int, o []float64) {})
}

func BenchmarkRangeOverhead(b *testing.B) {
	p := NewPool(4)
	defer p.Stop()
	x := make([]float64, 1<<16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Range(len(x), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				x[j] += 1
			}
		})
	}
}
