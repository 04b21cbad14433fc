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
//  3. One pool per process. comm.Engine runs R rank goroutines on one host;
//     if each rank spun up its own GOMAXPROCS workers, R×W goroutines would
//     contend for the same cores. The shared Default pool serializes
//     parallel regions (one region at a time, callers queue on a mutex), so
//     the host is never oversubscribed and per-region scratch needs no
//     per-caller copies.
//
//  4. Steady-state allocation freedom. Workers are started once and woken by
//     channel signals; reduction scratch is owned by the pool and reused.
//     The only per-region allocation is the closure header of the body.
//
// Region bodies must be leaf code: a body must not start another parallel
// region on the same pool (the region mutex is not reentrant).
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
	mu sync.Mutex // serializes regions; guards scratch and the fields below

	w    int
	wake chan struct{}
	done chan struct{}
	quit chan struct{}

	run     func(chunk int)
	nchunks int64
	next    atomic.Int64

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
		w:    w,
		wake: make(chan struct{}, w),
		done: make(chan struct{}, w),
		quit: make(chan struct{}),
	}
	p.reduceFn = p.reduceChunk
	for i := 1; i < w; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the pool's worker count (including the caller).
func (p *Pool) Workers() int { return p.w }

// Stop terminates the pool's worker goroutines. The pool must not be used
// afterwards. Waits for an in-flight region to finish.
func (p *Pool) Stop() {
	p.mu.Lock()
	close(p.quit)
	p.mu.Unlock()
}

func (p *Pool) worker() {
	for {
		select {
		case <-p.quit:
			return
		case <-p.wake:
			p.claimChunks()
			p.done <- struct{}{}
		}
	}
}

// claimChunks drains the region's chunk queue: chunks are claimed with an
// atomic counter, so load balancing is dynamic while output stays
// deterministic (chunks write disjoint results or indexed partial slots).
func (p *Pool) claimChunks() {
	n := p.nchunks
	for {
		c := p.next.Add(1) - 1
		if c >= n {
			return
		}
		p.run(int(c))
	}
}

// ForChunks runs body(c) for every chunk c in [0, nchunks), in parallel when
// the pool has more than one worker and the region has more than one chunk.
// Bodies run concurrently and must write disjoint state.
func (p *Pool) ForChunks(nchunks int, body func(chunk int)) {
	if nchunks <= 0 {
		return
	}
	if p.w == 1 || nchunks == 1 {
		for c := 0; c < nchunks; c++ {
			body(c)
		}
		return
	}
	p.mu.Lock()
	p.forChunksLocked(nchunks, body)
	p.mu.Unlock()
}

func (p *Pool) forChunksLocked(nchunks int, body func(chunk int)) {
	select {
	case <-p.quit:
		// Stopped pool (a stale reference across SetWorkers): its helper
		// goroutines are gone, so run the region serially — correct, just
		// not parallel. Stop acquires the region mutex, so this check
		// cannot race with an in-flight region.
		for c := 0; c < nchunks; c++ {
			body(c)
		}
		return
	default:
	}
	p.run = body
	p.nchunks = int64(nchunks)
	p.next.Store(0)
	helpers := p.w - 1
	if helpers > nchunks-1 {
		helpers = nchunks - 1
	}
	for i := 0; i < helpers; i++ {
		p.wake <- struct{}{}
	}
	p.claimChunks() // the caller is worker 0
	for i := 0; i < helpers; i++ {
		<-p.done
	}
	p.run = nil
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
// across worker counts and runs. The serial path (single chunk, or a
// one-worker pool) executes chunks in the same order with dst itself as the
// slot, so it produces the same bits. The chunk index lets a body own
// per-chunk scratch.
func (p *Pool) RangeReduce(dst []float64, n int, body func(chunk, lo, hi int, out []float64)) {
	for i := range dst {
		dst[i] = 0
	}
	stride := len(dst)
	nc := NumChunks(n)
	if nc == 0 {
		return
	}
	if nc == 1 || p.w == 1 {
		for c := 0; c < nc; c++ {
			lo, hi := ChunkBounds(n, nc, c)
			body(c, lo, hi, dst)
		}
		return
	}
	p.mu.Lock()
	need := nc * stride
	if cap(p.scratch) < need {
		p.scratch = make([]float64, need)
	}
	p.scratch = p.scratch[:need]
	for i := range p.scratch {
		p.scratch[i] = 0
	}
	p.redBody, p.redN, p.redNC, p.redW = body, n, nc, stride
	p.forChunksLocked(nc, p.reduceFn)
	p.redBody = nil
	for c := 0; c < nc; c++ {
		slot := p.scratch[c*stride : (c+1)*stride]
		for i, v := range slot {
			dst[i] += v
		}
	}
	p.mu.Unlock()
}

// reduceChunk runs the in-flight reduction's body on chunk c.
func (p *Pool) reduceChunk(c int) {
	lo, hi := ChunkBounds(p.redN, p.redNC, c)
	p.redBody(c, lo, hi, p.scratch[c*p.redW:(c+1)*p.redW])
}

// Default pool: one per process, sized from GOMAXPROCS, shared by every
// engine and rank.
var (
	defMu sync.Mutex
	def   *Pool
)

// Default returns the process-wide shared pool, creating it with
// GOMAXPROCS(0) workers on first use.
func Default() *Pool {
	defMu.Lock()
	defer defMu.Unlock()
	if def == nil {
		def = NewPool(runtime.GOMAXPROCS(0))
	}
	return def
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
	if def != nil {
		if def.w == n {
			return
		}
		def.Stop()
	}
	def = NewPool(n)
}

// Workers returns the shared pool's worker count.
func Workers() int { return Default().Workers() }
