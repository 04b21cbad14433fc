package main

import (
	"bytes"
	"fmt"
	"math"
	"sync"
)

// --- the seeded job list ------------------------------------------------------

// jobTemplate is one (operator, method) pair of the mix.
type jobTemplate struct {
	class string // small | medium | heavy
	req   solveRequest
}

const (
	uploadName = "lap-shuffled"
	// uploadGrid is the side of the uploaded 2-D Laplacian. The issue's
	// starting value of 150 does not belong in the small class: at 22 500
	// rows the 5-point operator's condition number makes a solve take ~2 s
	// and PIPE-PsCG stagnate on two of four right-hand sides. 48 gives a
	// ~10 ms PCG solve and still a matrix whose shuffled bandwidth RCM cuts.
	uploadGrid = 48
)

// mixTemplates is the serve_mixed / cluster_mixed population. dim scales the
// grid sizes for smoke runs.
func mixTemplates(cfg runConfig) (small []jobTemplate, medium, heavy jobTemplate) {
	small = []jobTemplate{
		{"small", solveRequest{Problem: "poisson7", N: cfg.scaledDim(16), Method: "pipe-pscg"}},
		{"small", solveRequest{Problem: "poisson125", N: cfg.scaledDim(12), Method: "pcg"}},
		{"small", solveRequest{Problem: "thermal2", Scale: 32, Method: "pipecg"}},
		{"small", solveRequest{Problem: uploadName, Method: "pcg"}},
	}
	medium = jobTemplate{"medium", solveRequest{Problem: "poisson7", N: cfg.scaledDim(24), Method: "pipe-pscg"}}
	heavy = jobTemplate{"heavy", solveRequest{Problem: "poisson7", N: cfg.scaledDim(32), Method: "pipe-pscg", Ranks: 2}}
	return small, medium, heavy
}

// The mix is exact per block of 50 jobs — 35 small (70 %), 11 medium (22 %),
// 4 heavy (8 %) — and only the order inside a block and the rhs_seed of each
// job are drawn from the seed. A run that stops after any whole number of
// blocks has executed exactly the stated mix, so two seeds time the same
// work; 8 % heavy puts p95 inside the heavy class and p50 inside the small
// class, away from a class boundary.
const (
	blockJobs   = 50
	blockSmall  = 35
	blockMedium = 11
	rhsSeeds    = 4 // rhs_seed values per operator: 1..rhsSeeds
)

// job is one entry of the list.
type job struct {
	index int
	class string
	req   solveRequest
}

// systemKey names the linear system a job solves; all its solves must return
// one x_hash.
func (j job) systemKey() string {
	return fmt.Sprintf("%s/n=%d/scale=%d/%s/ranks=%d/rhs=%d",
		j.req.Problem, j.req.N, j.req.Scale, j.req.Method, j.req.Ranks, j.req.RHSSeed)
}

// jobList generates the endless seeded list block by block.
type jobList struct {
	mu      sync.Mutex
	rng     splitmix64
	cfg     runConfig
	keyed   bool // attach unique job_key values (cluster_mixed)
	next    int
	pending []job
	blocks  int
}

func newJobList(cfg runConfig, keyed bool) *jobList {
	return &jobList{rng: splitmix64(cfg.seed), cfg: cfg, keyed: keyed}
}

func (l *jobList) block() []job {
	small, medium, heavy := mixTemplates(l.cfg)
	out := make([]job, 0, blockJobs)
	for i := 0; i < blockJobs; i++ {
		t := heavy
		switch {
		case i < blockSmall:
			// Rotate which small operator gets the odd job out.
			t = small[(i+l.blocks)%len(small)]
		case i < blockSmall+blockMedium:
			t = medium
		}
		out = append(out, job{class: t.class, req: t.req})
	}
	for i := len(out) - 1; i > 0; i-- {
		k := l.rng.intn(i + 1)
		out[i], out[k] = out[k], out[i]
	}
	for i := range out {
		out[i].req.RHSSeed = uint64(1 + l.rng.intn(rhsSeeds))
		out[i].index = l.next
		if l.keyed {
			out[i].req.JobKey = fmt.Sprintf("bench-%d-%d", l.cfg.seed, l.next)
		}
		l.next++
	}
	l.blocks++
	return out
}

// take returns the next job; safe for concurrent clients.
func (l *jobList) take() job {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) == 0 {
		l.pending = l.block()
	}
	j := l.pending[0]
	l.pending = l.pending[1:]
	return j
}

// --- the uploaded operator ------------------------------------------------------

// shuffledLaplacian is the upload: a 2-D 5-point Laplacian whose rows and
// columns are permuted by the seed, so the registry's RCM pass has work to
// do. Returned with its MatrixMarket text.
func shuffledLaplacian(cfg runConfig) (*csrMatrix, []byte, error) {
	n := uploadGrid
	if cfg.scale < 1 {
		n = max(12, int(uploadGrid*math.Sqrt(cfg.scale)))
	}
	a := laplacian2D(n)
	rng := splitmix64(cfg.seed ^ 0x75706c6f6164) // "upload"
	perm := make([]int, a.Rows)
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		k := rng.intn(i + 1)
		perm[i], perm[k] = perm[k], perm[i]
	}
	shuffled := permuteSym(a, perm)
	var buf bytes.Buffer
	if err := writeMatrixMarket(&buf, shuffled); err != nil {
		return nil, nil, err
	}
	return shuffled, buf.Bytes(), nil
}
