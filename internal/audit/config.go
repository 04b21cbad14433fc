package audit

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/krylov"
)

// Config is one point of the differential sweep: a problem instance, a
// method, a preconditioner and a block size. A config is deliberately
// engine-free — the harness runs the SAME config through every engine spec
// and compares the outcomes. Seed records the splitmix64 draw that produced
// the config, so a reported failure carries its own provenance.
type Config struct {
	Problem string // catalogue problem name (poisson7, poisson125, ecology2, ...)
	N       int    // grid edge for structured problems, reduction scale for synth ones
	Method  string // solver name from the krylov registry
	PC      string // preconditioner name (none, jacobi, sor)
	S       int    // s-step block size (1 for the one-step methods)
	// Op selects the operator backend: "" (the problem's default), "csr"
	// (force the assembled matrix), "stencil" (require the matrix-free
	// kernel), or "rcm" (solve the RCM-reordered system). The axis exists so
	// the sweep covers the raw-speed paths — matrix-free SPMV, fused dots
	// over the operator's chunk plan, reordered systems — under the same
	// differential policies as the assembled default.
	Op string
	// K is the multi-RHS width: K>1 additionally audits the block subsystem
	// (internal/blockcg) by running K right-hand sides as one gang solve and
	// holding every column to bit-identity against its own solo solve — the
	// block determinism contract under the same differential policy as the
	// engine matrix.
	K int
	// RR is the residual-replacement cadence for the stability-aware
	// pipelined variants (Options.ReplaceEvery): every RR iterations the
	// recurrence residual is recomputed from r = b − A·x. 0 means the
	// method's own default (pipe-m-cg-rr replaces on its built-in cadence,
	// every other method does not replace at all), so 0 is the canonical
	// form and configs without replacement stringify without an rr field.
	RR   int
	Seed uint64 // generator draw that produced this config (provenance)
}

// synthProblems are the problems whose N field is a reduction scale rather
// than a grid edge (they serialize as scale= instead of n=).
var synthProblems = map[string]bool{"ecology2": true, "thermal2": true, "serena": true}

// String renders the config in the canonical repro form:
//
//	problem=poisson7;n=6;method=pipe-pscg;pc=jacobi;s=3;seed=0x9e3779b97f4a7c15
//
// ParseConfig inverts it exactly; the pair is the wire format of every repro
// line the harness prints.
func (c Config) String() string {
	dim := "n"
	if synthProblems[c.Problem] {
		dim = "scale"
	}
	k := ""
	if c.K > 1 {
		k = fmt.Sprintf(";k=%d", c.K)
	}
	op := ""
	if c.Op != "" {
		op = ";op=" + c.Op
	}
	rr := ""
	if c.RR > 0 {
		rr = fmt.Sprintf(";rr=%d", c.RR)
	}
	return fmt.Sprintf("problem=%s;%s=%d;method=%s;pc=%s;s=%d%s%s%s;seed=0x%x",
		c.Problem, dim, c.N, c.Method, c.PC, c.S, k, op, rr, c.Seed)
}

// ParseConfig parses the String form back into a Config.
func ParseConfig(s string) (Config, error) {
	var c Config
	seen := map[string]bool{}
	for _, kv := range strings.Split(strings.TrimSpace(s), ";") {
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return c, fmt.Errorf("audit: bad config field %q (want key=value)", kv)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		if seen[k] {
			return c, fmt.Errorf("audit: duplicate config field %q", k)
		}
		seen[k] = true
		switch k {
		case "problem":
			c.Problem = v
		case "n", "scale":
			n, err := strconv.Atoi(v)
			if err != nil {
				return c, fmt.Errorf("audit: bad %s=%q: %v", k, v, err)
			}
			c.N = n
		case "method":
			c.Method = v
		case "pc":
			c.PC = v
		case "op":
			c.Op = v
		case "s":
			n, err := strconv.Atoi(v)
			if err != nil {
				return c, fmt.Errorf("audit: bad s=%q: %v", v, err)
			}
			c.S = n
		case "k":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return c, fmt.Errorf("audit: bad k=%q (want a non-negative width)", v)
			}
			c.K = n
		case "rr":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return c, fmt.Errorf("audit: bad rr=%q (want a non-negative cadence)", v)
			}
			c.RR = n
		case "seed":
			sd, err := strconv.ParseUint(strings.TrimPrefix(v, "0x"), 16, 64)
			if err != nil {
				return c, fmt.Errorf("audit: bad seed=%q: %v", v, err)
			}
			c.Seed = sd
		default:
			return c, fmt.Errorf("audit: unknown config field %q", k)
		}
	}
	if c.Problem == "" || c.Method == "" {
		return c, fmt.Errorf("audit: config %q missing problem or method", s)
	}
	if c.PC == "" {
		c.PC = "none"
	}
	if c.S < 1 {
		c.S = 1
	}
	// K is 0 when absent or 1: the zero value means "no block axis", and
	// K<=1 configs stringify without a k field, so the zero value is the
	// canonical single-RHS form and String/ParseConfig round-trip exactly.
	if c.K == 1 {
		c.K = 0
	}
	return c, nil
}

// splitmix64 is the generator behind the sweep: a tiny, well-mixed,
// splittable PRNG whose whole state is one uint64 — the seed IS the stream.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// problemPool is the sweep's problem axis: small instances of the paper's
// workloads, each with the size choices that keep a full differential run
// (6 engine specs per config) in test-suite time.
var problemPool = []struct {
	name string
	dims []int
}{
	{"poisson7", []int{6, 7, 8, 9}},
	{"poisson125", []int{4, 5}},
	{"poisson5", []int{8, 10, 12}},
	{"ecology2", []int{120}}, // reduction scale: an 8×8 heterogeneous 2D grid
}

// stencilProblems are the problems with a matrix-free stencil backend (the
// op=stencil axis value is only legal for these).
var stencilProblems = map[string]bool{"poisson7": true, "poisson5": true}

// methodPool is the sweep's method axis: the six methods ISSUE 4 named —
// blocking baselines, both s-step generations, both pipelined variants —
// plus the stability-aware predict-and-recompute family.
var methodPool = []string{
	"pcg", "groppcg", "scg", "pipe-scg", "pscg", "pipe-pscg",
	"pipe-pr-cg", "pipe-m-cg-rr",
}

// rrMethods are the methods whose replacement cadence the sweep varies
// (the rr= axis). Other pipelined methods also honor Options.ReplaceEvery,
// but only the stability-aware family treats the cadence as a first-class
// tuning knob, so the axis stays focused there.
var rrMethods = map[string]bool{"pipe-pr-cg": true, "pipe-m-cg-rr": true}

// rrPool is the replacement-cadence axis for rrMethods: short enough that a
// test-size solve actually replaces, spread over a factor of 8.
var rrPool = []int{6, 12, 24, 48}

// pcPool is the preconditioner axis. Methods that ignore the preconditioner
// are forced to "none" so equal configs stringify equally.
var pcPool = []string{"none", "jacobi", "sor"}

// Generate derives count configs from seed. The stream is pure: the same
// seed always yields the same configs, and every config records the draw
// that produced it so it can be regenerated in isolation.
func Generate(seed uint64, count int) []Config {
	state := seed
	out := make([]Config, 0, count)
	for len(out) < count {
		draw := splitmix64(&state)
		out = append(out, configFromDraw(draw))
	}
	return out
}

// configFromDraw maps one 64-bit draw onto the config axes, consuming
// disjoint bit ranges so nearby draws decorrelate.
func configFromDraw(draw uint64) Config {
	c := Config{Seed: draw}
	p := problemPool[int(draw%uint64(len(problemPool)))]
	draw >>= 8
	c.Problem = p.name
	c.N = p.dims[int(draw%uint64(len(p.dims)))]
	draw >>= 8
	c.Method = methodPool[int(draw%uint64(len(methodPool)))]
	meth, _ := krylov.MethodByName(c.Method) // pool names resolve: TestMethodListsKnown
	draw >>= 8
	if meth.SStep {
		c.S = 1 + int(draw%4) // s ∈ 1..4: past 3 engages the σ basis rescale
	} else {
		c.S = 1
	}
	draw >>= 8
	if meth.Unpreconditioned {
		c.PC = "none"
	} else {
		c.PC = pcPool[int(draw%uint64(len(pcPool)))]
	}
	draw >>= 8
	// Operator axis: half the sweep stays on the problem default, the rest
	// splits across the explicit backends so every sweep of ~50 configs
	// exercises the assembled, matrix-free and reordered paths.
	switch draw % 8 {
	case 4, 5:
		c.Op = "csr"
	case 6:
		if stencilProblems[c.Problem] {
			c.Op = "stencil"
		} else {
			c.Op = "rcm"
		}
	case 7:
		c.Op = "rcm"
	}
	draw >>= 8
	// Multi-RHS axis: roughly a quarter of the sweep additionally audits the
	// block subsystem at widths 2..4 (every column bit-compared to its solo
	// solve); the rest stays single-RHS (K zero — the canonical form).
	if draw%4 == 3 {
		c.K = 2 + int((draw>>8)%3)
	}
	// Replacement-cadence axis for the stability-aware family: half the
	// family's configs stay on the method default (RR zero — the canonical
	// form), the rest draw an explicit cadence. The 64-bit draw is exhausted
	// by the axes above, so this axis re-mixes the recorded seed through a
	// fresh splitmix64 step — still a pure function of the draw.
	if rrMethods[c.Method] {
		st := c.Seed ^ 0x5851f42d4c957f2d
		rd := splitmix64(&st)
		if rd%2 == 1 {
			c.RR = rrPool[int((rd>>8)%uint64(len(rrPool)))]
		}
	}
	return c
}

// minDim returns the smallest legal size for a problem — the shrinker's
// floor.
func minDim(problem string) int {
	for _, p := range problemPool {
		if p.name == problem {
			d := append([]int(nil), p.dims...)
			sort.Ints(d)
			if synthProblems[problem] {
				return d[len(d)-1] // for scales, LARGER scale = SMALLER matrix
			}
			return d[0]
		}
	}
	return 1
}
