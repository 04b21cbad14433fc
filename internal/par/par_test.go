package par

import (
	"fmt"
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

// TestLeaseAccounting pins the lease rule with bodies parked on a channel: a
// lone region takes every helper, a region entered meanwhile takes none and
// still completes on its caller, and everything is returned afterwards.
func TestLeaseAccounting(t *testing.T) {
	const w = 8
	p := NewPool(w)
	defer p.Stop()
	entered := make(chan struct{}, w)
	release := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		p.ForChunks(w, func(int) {
			entered <- struct{}{}
			<-release
		})
	}()
	for i := 0; i < w; i++ {
		<-entered // every worker, caller included, is parked in one chunk
	}
	if f := p.free.Load(); f != 0 {
		t.Errorf("lone region left %d helpers free, want 0", f)
	}
	if d := len(p.regions); d != w-2 {
		t.Errorf("%d descriptors free with one region in flight, want %d", d, w-2)
	}
	var order []int // unsynchronized on purpose: the region must stay on this goroutine
	p.ForChunks(5, func(c int) { order = append(order, c) })
	var sum [1]float64
	p.RangeReduce(sum[:], 10*Grain(), func(c, lo, hi int, out []float64) {
		order = append(order, 5+c)
		out[0] += float64(hi - lo)
	})
	for i, c := range order {
		if c != i {
			t.Fatalf("helperless regions ran chunks in order %v", order)
		}
	}
	if len(order) != 15 || sum[0] != float64(10*Grain()) {
		t.Errorf("helperless regions ran %d chunks and reduced %g", len(order), sum[0])
	}
	if f, d := p.free.Load(), len(p.regions); f != 0 || d != w-2 {
		t.Errorf("helperless regions moved the lease state: free=%d descriptors=%d", f, d)
	}
	close(release)
	<-finished
	if f, d := p.free.Load(), len(p.regions); f != w-1 || d != w-1 {
		t.Errorf("after release free=%d descriptors=%d, want %d and %d", f, d, w-1, w-1)
	}
}

// TestConcurrentRegions hammers one shared pool from several goroutines —
// the comm.Engine and service usage pattern (callers × shared pool) — with
// mixed ForChunks and RangeReduce regions. Every reduction must carry the bits
// of its solo run whatever it managed to lease, and the lease count must come
// back whole. Run under -race.
func TestConcurrentRegions(t *testing.T) {
	defer SetGrain(0)
	SetGrain(32)
	const callers, regions, n = 6, 200, 5000
	x := make([][]float64, callers)
	solo := make([]float64, callers)
	sumOf := func(p *Pool, x []float64) float64 {
		var out [1]float64
		p.RangeReduce(out[:], n, func(_, lo, hi int, o []float64) {
			var s float64
			for i := lo; i < hi; i++ {
				s += x[i]
			}
			o[0] += s
		})
		return out[0]
	}
	p1 := NewPool(1)
	for r := range x {
		x[r] = make([]float64, n)
		for i := range x[r] {
			x[r][i] = 1 / float64(1+(i*(r+3))%17)
		}
		solo[r] = sumOf(p1, x[r])
	}
	for _, w := range []int{1, 2, 4} {
		p := NewPool(w)
		var wg sync.WaitGroup
		for r := 0; r < callers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				hits := make([]int32, 37)
				for rep := 0; rep < regions; rep++ {
					if rep%2 == 0 {
						if got := sumOf(p, x[r]); got != solo[r] {
							t.Errorf("w=%d caller %d region %d: %x, solo %x", w, r, rep, got, solo[r])
							return
						}
						continue
					}
					p.ForChunks(len(hits), func(c int) { hits[c]++ })
				}
				for c, h := range hits {
					if h != regions/2 {
						t.Errorf("w=%d caller %d: chunk %d ran %d times, want %d", w, r, c, h, regions/2)
						return
					}
				}
			}(r)
		}
		wg.Wait()
		if f, d := p.free.Load(), len(p.regions); f != int32(w-1) || d != w-1 {
			t.Errorf("w=%d: free=%d descriptors=%d after the hammer, want %d", w, f, d, w-1)
		}
		p.Stop()
	}
}

// TestStopWithRegionsInFlight: Stop waits out the regions holding helpers and
// returns, a second Stop is a no-op, and regions entered afterwards run
// serially on their caller.
func TestStopWithRegionsInFlight(t *testing.T) {
	p := NewPool(4)
	started := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var count atomic.Int64
			for rep := 0; rep < 300; rep++ {
				if rep == 10 {
					started <- struct{}{}
				}
				count.Store(0)
				p.ForChunks(9, func(c int) { count.Add(int64(c)) })
				if count.Load() != 36 {
					t.Errorf("region lost chunks across Stop: sum %d", count.Load())
					return
				}
			}
		}()
	}
	for g := 0; g < 3; g++ {
		<-started
	}
	p.Stop()
	p.Stop()
	wg.Wait()
	if f := p.free.Load(); f != 0 {
		t.Errorf("stopped pool has %d helpers free", f)
	}
	var order []int // unsynchronized: -race flags any chunk that leaves the caller
	p.ForChunks(9, func(c int) { order = append(order, c) })
	for i, c := range order {
		if c != i {
			t.Fatalf("stopped pool ran chunks in order %v", order)
		}
	}
	if len(order) != 9 {
		t.Fatalf("stopped pool ran %d of 9 chunks", len(order))
	}
}

// TestLeasedRegionsAllocFree: a warm region that does lease helpers — the
// descriptor checkout, the wake-ups, the reduction scratch — allocates nothing.
func TestLeasedRegionsAllocFree(t *testing.T) {
	const w = 4
	p := NewPool(w)
	defer p.Stop()
	var unleased atomic.Int64
	chunk := func(int) {
		if p.free.Load() == w-1 {
			unleased.Add(1)
		}
	}
	reduce := func(_, lo, hi int, out []float64) {
		chunk(0)
		out[0] += float64(hi - lo)
	}
	var dst [2]float64
	n := 16 * Grain()
	forChunks := func() { p.ForChunks(16, chunk) }
	rangeReduce := func() { p.RangeReduce(dst[:], n, reduce) }
	forChunks()
	rangeReduce()
	if a := testing.AllocsPerRun(50, forChunks); a != 0 {
		t.Errorf("warm ForChunks allocates %.1f times per region", a)
	}
	if a := testing.AllocsPerRun(50, rangeReduce); a != 0 {
		t.Errorf("warm RangeReduce allocates %.1f times per region", a)
	}
	if unleased.Load() != 0 || dst[0] != float64(n) {
		t.Errorf("%d chunks ran without a lease; reduced %g, want %d", unleased.Load(), dst[0], n)
	}
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

// BenchmarkPoolContended times regions entered by 1, 2 and 4 concurrent
// callers on one 4-worker pool — short regions (2 chunks) and solver-sized
// ones (27, a 48^3 vector at the default grain) with a ~2 µs body. Every
// caller runs b.N regions, so ns/op is the time one caller spends per region.
func BenchmarkPoolContended(b *testing.B) {
	var sink atomic.Uint64
	body := func(c int) {
		v := uint64(c) + 1
		for i := 0; i < 1000; i++ { // ~2 µs of dependent multiplies
			v = v*6364136223846793005 + 1442695040888963407
		}
		sink.Add(v & 1)
	}
	for _, callers := range []int{1, 2, 4} {
		for _, nchunks := range []int{2, 27} {
			b.Run(fmt.Sprintf("callers=%d/chunks=%d", callers, nchunks), func(b *testing.B) {
				p := NewPool(4)
				defer p.Stop()
				var wg sync.WaitGroup
				b.ResetTimer()
				for g := 0; g < callers; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < b.N; i++ {
							p.ForChunks(nchunks, body)
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}
