// Package par is the compute-kernel threading layer of the solver stack: a
// reusable fork-join worker pool plus the deterministic chunk geometry the
// parallel kernels in internal/vec and internal/sparse are built on.
//
// Design constraints, in order:
//
//  1. Machine-model fidelity. The pool changes only wall-clock time, never
//     the counted work: engines keep charging the same flops and bytes
//     through Charge(), so the cost model and the Table 1/2 reproductions
//     are untouched by the worker count.
//
//  2. Run-to-run determinism. Chunk geometry (NumChunks, ChunkBounds) is a
//     pure function of the problem size — it never depends on the worker
//     count or on scheduling. Reductions combine per-chunk partials in
//     ascending chunk order, so parallel dot products and Gram matrices are
//     bit-identical across repeated runs and across pool sizes.
//
//  3. One pool per process, and no region ever waits for another. comm.Engine
//     runs R rank goroutines and the service runs concurrent jobs on one
//     host; if each spun up its own GOMAXPROCS workers, R×W goroutines would
//     contend for the same cores. The shared Default pool's W-1 helpers are a
//     counted resource instead: a region leases as many as are free (at most
//     one per chunk beyond its own), and a region that finds none runs all
//     its chunks on its caller. Lease what is free, never wait — so at most
//     W-1 helpers plus the callers themselves are runnable. Splitting the
//     helpers evenly among the callers present was measured and rejected: it
//     runs two comm ranks inline in lock-step and loses the stagger in which
//     one computes on every core while the other waits out a network hop
//     (solve_latency solve_s +29 %). Known residue at W > 2: a caller that
//     found no helper finishes that one region serially even if helpers free
//     up meanwhile.
//
//  4. Steady-state allocation freedom. Workers are started once and woken by
//     channel signals; each in-flight region owns a descriptor (chunk
//     counter, completion channel, reduction scratch) checked out of a fixed
//     free list and reused. The only per-region allocation is the closure
//     header of the body.
//
// Region bodies should be leaf code: a body that starts another region on the
// same pool is correct (the inner region leases what is left, usually
// nothing, and runs inline) but gains no parallelism.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// grainSize is the minimum number of work items (vector elements, matrix
// nonzeros) one chunk carries. It is the serial-threshold knob: regions with
// at most one chunk of work run inline on the caller. Tunable via SetGrain;
// fixed per run, or the determinism guarantee (chunk geometry is a function
// of problem size only) would not hold across calls.
var grainSize atomic.Int64

// maxChunks bounds the chunk count of a region, bounding both scheduling
// overhead and the pool's partial-sum scratch (maxChunks × stride floats).
// It is a constant — chunk geometry must not depend on runtime state.
const maxChunks = 256

func init() { grainSize.Store(4096) }

// Grain returns the current chunk grain (work items per chunk).
func Grain() int { return int(grainSize.Load()) }

// SetGrain sets the chunk grain; n < 1 restores the default (4096). Chunk
// geometry — and therefore the bit pattern of parallel reductions — changes
// with the grain, so set it once at startup, not between kernels whose
// results are compared bit-for-bit.
func SetGrain(n int) {
	if n < 1 {
		n = 4096
	}
	grainSize.Store(int64(n))
}

// NumChunks returns how many chunks a region over n work items uses: a pure
// function of n (and the fixed grain), never of the worker count. n below or
// at one grain yields a single chunk — the serial fast path.
func NumChunks(n int) int {
	if n <= 0 {
		return 0
	}
	g := int(grainSize.Load())
	c := (n + g - 1) / g
	if c > maxChunks {
		c = maxChunks
	}
	return c
}

// ChunkBounds returns the half-open item range [lo, hi) of chunk c out of
// nchunks over n items. Chunks differ in size by at most one item.
func ChunkBounds(n, nchunks, c int) (lo, hi int) {
	return c * n / nchunks, (c + 1) * n / nchunks
}

// Pool is a fork-join worker pool. The zero value is not usable; use NewPool
// or the process-wide Default pool.
type Pool struct {
	w    int
	free atomic.Int32 // helpers not leased to a region; 0 for good once stopped

	wake    chan *region // leased helpers receive the region to work on
	regions chan *region // free list of w-1 descriptors
	quit    chan struct{}
	stop    sync.Once
}

// region is the state of one in-flight parallel region. A region that leased
// at least one helper holds exactly one descriptor, so w-1 of them suffice and
// checking one out never blocks.
type region struct {
	helpers int // leased to this region
	run     func(chunk int)
	nchunks int64
	next    atomic.Int64
	done    chan struct{}

	scratch []float64 // reduction partials, reused across regions

	// The reduction in flight: reduceFn is reduceChunk bound once, so a
	// RangeReduce region allocates nothing of its own.
	redBody           func(chunk, lo, hi int, out []float64)
	redN, redNC, redW int
	reduceFn          func(chunk int)
}

// NewPool starts a pool with w workers (w < 1 means one). Worker 0 is the
// caller of each region; only w-1 goroutines are spawned.
func NewPool(w int) *Pool {
	if w < 1 {
		w = 1
	}
	p := &Pool{
		w:       w,
		wake:    make(chan *region, w-1),
		regions: make(chan *region, w-1),
		quit:    make(chan struct{}),
	}
	p.free.Store(int32(w - 1))
	for i := 1; i < w; i++ {
		r := &region{done: make(chan struct{}, w-1)}
		r.reduceFn = r.reduceChunk
		p.regions <- r
		go p.worker()
	}
	return p
}

// Workers returns the pool's worker count (including the caller).
func (p *Pool) Workers() int { return p.w }

// Stop terminates the pool's worker goroutines once every in-flight region
// has returned its helpers: it leases all w-1 and keeps them, so regions
// entered afterwards (a stale reference across SetWorkers) find none free and
// run serially. A second Stop is a no-op.
func (p *Pool) Stop() {
	p.stop.Do(func() {
		for held := 0; held < p.w-1; {
			if k := p.lease(p.w - 1 - held); k > 0 {
				held += k
			} else {
				runtime.Gosched()
			}
		}
		close(p.quit)
	})
}

func (p *Pool) worker() {
	for {
		select {
		case <-p.quit:
			return
		case r := <-p.wake:
			r.claimChunks()
			r.done <- struct{}{}
		}
	}
}

// lease takes up to want helpers out of the free count — whatever is free
// right now, possibly none. It never waits.
func (p *Pool) lease(want int) int {
	for {
		f := p.free.Load()
		k := min(int(f), want)
		if k <= 0 {
			return 0
		}
		if p.free.CompareAndSwap(f, f-int32(k)) {
			return k
		}
	}
}

// enter leases helpers for a region of nchunks chunks and checks out the
// descriptor they share; nil means no helper is free (or none is needed) and
// the caller runs the region alone.
func (p *Pool) enter(nchunks int) *region {
	k := p.lease(nchunks - 1)
	if k == 0 {
		return nil
	}
	r := <-p.regions
	r.helpers = k
	return r
}

// leave returns the descriptor and then the lease — in that order, so a
// region that holds a lease always finds a descriptor.
func (p *Pool) leave(r *region) {
	k := r.helpers
	p.regions <- r
	p.free.Add(int32(k))
}

// claimChunks drains the region's chunk queue: chunks are claimed with an
// atomic counter, so load balancing is dynamic while output stays
// deterministic (chunks write disjoint results or indexed partial slots).
func (r *region) claimChunks() {
	n := r.nchunks
	for {
		c := r.next.Add(1) - 1
		if c >= n {
			return
		}
		r.run(int(c))
	}
}

// ForChunks runs body(c) for every chunk c in [0, nchunks), in parallel when
// the region has more than one chunk and the pool has a helper free. Bodies
// run concurrently and must write disjoint state.
func (p *Pool) ForChunks(nchunks int, body func(chunk int)) {
	r := p.enter(nchunks)
	if r == nil {
		for c := 0; c < nchunks; c++ {
			body(c)
		}
		return
	}
	p.fork(r, nchunks, body)
	p.leave(r)
}

// fork runs the region on its leased helpers plus the caller (worker 0).
func (p *Pool) fork(r *region, nchunks int, body func(chunk int)) {
	r.run = body
	r.nchunks = int64(nchunks)
	r.next.Store(0)
	for i := 0; i < r.helpers; i++ {
		p.wake <- r
	}
	r.claimChunks()
	for i := 0; i < r.helpers; i++ {
		<-r.done
	}
	r.run = nil
}

// Range runs body over [0, n) split into deterministic chunks. body must be
// safe to invoke concurrently on disjoint index ranges. Regions of at most
// one grain run inline on the caller.
func (p *Pool) Range(n int, body func(lo, hi int)) {
	nc := NumChunks(n)
	if nc == 0 {
		return
	}
	if nc == 1 || p.w == 1 {
		body(0, n)
		return
	}
	p.ForChunks(nc, func(c int) {
		lo, hi := ChunkBounds(n, nc, c)
		body(lo, hi)
	})
}

// RangeReduce computes a fixed-order parallel reduction over [0, n). dst
// (length = the reduction stride, possibly 0) is zeroed, then body is run
// once per chunk with the chunk's index and bounds and a zeroed stride-long
// slot into which it must accumulate (+=) its chunk's contribution, and the
// slots are folded into dst in ascending chunk order. Because chunk geometry
// depends only on n and the fold order is fixed, the result is bit-identical
// across worker counts and runs. The serial path (single chunk, or no helper
// free) executes chunks in the same order with dst itself as the slot, so it
// produces the same bits. The chunk index lets a body own per-chunk scratch.
func (p *Pool) RangeReduce(dst []float64, n int, body func(chunk, lo, hi int, out []float64)) {
	for i := range dst {
		dst[i] = 0
	}
	stride := len(dst)
	nc := NumChunks(n)
	r := p.enter(nc)
	if r == nil {
		for c := 0; c < nc; c++ {
			lo, hi := ChunkBounds(n, nc, c)
			body(c, lo, hi, dst)
		}
		return
	}
	need := nc * stride
	if cap(r.scratch) < need {
		r.scratch = make([]float64, need)
	}
	r.scratch = r.scratch[:need]
	for i := range r.scratch {
		r.scratch[i] = 0
	}
	r.redBody, r.redN, r.redNC, r.redW = body, n, nc, stride
	p.fork(r, nc, r.reduceFn)
	r.redBody = nil
	for c := 0; c < nc; c++ {
		slot := r.scratch[c*stride : (c+1)*stride]
		for i, v := range slot {
			dst[i] += v
		}
	}
	p.leave(r)
}

// reduceChunk runs the in-flight reduction's body on chunk c.
func (r *region) reduceChunk(c int) {
	lo, hi := ChunkBounds(r.redN, r.redNC, c)
	r.redBody(c, lo, hi, r.scratch[c*r.redW:(c+1)*r.redW])
}

// Default pool: one per process, sized from GOMAXPROCS, shared by every
// engine and rank. Readers load the pointer; defMu only orders the writers
// (first creation and SetWorkers).
var (
	defMu sync.Mutex
	def   atomic.Pointer[Pool]
)

// Default returns the process-wide shared pool, creating it with
// GOMAXPROCS(0) workers on first use.
func Default() *Pool {
	if p := def.Load(); p != nil {
		return p
	}
	defMu.Lock()
	defer defMu.Unlock()
	if def.Load() == nil {
		def.Store(NewPool(runtime.GOMAXPROCS(0)))
	}
	return def.Load()
}

// SetWorkers replaces the shared pool with one of n workers; n < 1 restores
// the GOMAXPROCS default. Callers that grabbed the old pool via Default keep
// a working reference — a stopped pool degrades to serial execution — so
// resizing is safe at any quiescent point, typically test or benchmark
// setup.
func SetWorkers(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	defMu.Lock()
	defer defMu.Unlock()
	old := def.Load()
	if old != nil && old.w == n {
		return
	}
	def.Store(NewPool(n))
	if old != nil {
		old.Stop()
	}
}

// Workers returns the shared pool's worker count.
func Workers() int { return Default().Workers() }
