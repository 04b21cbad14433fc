package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// --- references: the same systems solved through the library ------------------

// xHash is the service's iterate fingerprint: FNV-1a 64 over the little-endian
// float64 bits.
func xHash(x []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// reference holds, per operator of a workload, the raw matrix the gate checks
// residuals against, and solves systems in-process for the expected x_hash.
type reference struct {
	mats map[string]*csrMatrix // operator key → assembled matrix
	ops  map[string]operator
}

func opKey(r solveRequest) string { return fmt.Sprintf("%s/%d/%d", r.Problem, r.N, r.Scale) }

func (ref *reference) add(r solveRequest, upload *csrMatrix) {
	key := opKey(r)
	if _, ok := ref.mats[key]; ok {
		return
	}
	switch r.Problem {
	case "poisson7":
		ref.mats[key], ref.ops[key] = poisson(r.N, 7, true)
	case "poisson125":
		ref.mats[key], ref.ops[key] = poisson(r.N, 125, false)
	case "thermal2":
		a := thermal2(r.Scale)
		ref.mats[key], ref.ops[key] = a, a
	case uploadName:
		ref.mats[key], ref.ops[key] = upload, upload
	}
}

// rhs is the daemon's right-hand side for a request: the seeded uniform
// vector, or the canonical b = A·1 when rhs_seed is 0.
func (ref *reference) rhs(r solveRequest) []float64 {
	a := ref.mats[opKey(r)]
	if r.RHSSeed == 0 {
		return onesRHS(a)
	}
	rng := splitmix64(r.RHSSeed)
	return filled(a.Rows, &rng)
}

// expectedHash solves the request's system through the library — sequential
// engine, or the comm runtime on the nnz-balanced partition for ranks > 1 —
// exactly as the daemon documents it does, and returns the iterate's hash.
// The upload is skipped: the registry reorders it, which the benchmark does
// not replicate; its jobs are held to within-run agreement instead.
func (ref *reference) expectedHash(r solveRequest) (string, error) {
	if r.Problem == uploadName {
		return "", nil
	}
	a, op := ref.mats[opKey(r)], ref.ops[opKey(r)]
	b := ref.rhs(r)
	if r.Ranks > 1 {
		run, err := commSolve(a, op, rowBlockByNNZ(a, r.Ranks), 0, r.Method, b, false)
		if err != nil {
			return "", err
		}
		return xHash(run.res.X), nil
	}
	res, _, err := seqSolve(op, newJacobi(a, 0, a.Rows), r.Method, b, nil)
	if err != nil {
		return "", err
	}
	return xHash(res.X), nil
}

// --- the deployment under test ----------------------------------------------------

type serviceWorkload struct {
	clients int
	shards  int // 0: one daemon, addressed directly; else a router over this many shards
	burst   int // > 0: serve_burst, bursts of this many jobs
}

var serviceWorkloads = map[string]serviceWorkload{
	"serve_mixed":   {clients: 2},
	"cluster_mixed": {clients: 2, shards: 2},
	"serve_burst":   {clients: 1, burst: 8},
}

// Coalescing configuration of serve_burst (the others run daemon defaults).
const (
	burstCoalesceWidth  = 8
	burstCoalesceWindow = 2 * time.Millisecond
	tracedFlightJobs    = 1 << 14 // traced pass: keep every job tree of the run
)

// deployment is the running service: the base URL clients use, the daemons
// behind it, and what set-up learned.
type deployment struct {
	front   string            // base URL of the daemon, or of the router
	daemons map[string]string // shard name → base URL ("" name for the single daemon)
	router  *daemon
	stops   []func()
	shardOf map[string]string // operator key → shard that served its warm-up (cluster)
	uploadS float64
	buildS  float64 // Σ over operators: cold first job − warm job
	totalS  float64
}

func (d *deployment) stop() {
	for i := len(d.stops) - 1; i >= 0; i-- {
		d.stops[i]()
	}
}

// --- running a service workload -------------------------------------------------

// done is one completed job as the client saw it.
type done struct {
	job     job
	id      string // daemon job id
	latency float64
	start   int64 // client_submit span bounds
	end     int64
	spanID  string // client span id when a traceparent was sent
	traced  bool
	width   int
	shard   string
	tries   int
}

type serviceRun struct {
	cfg  runConfig
	w    serviceWorkload
	g    *gate
	log  *spanLog
	ref  *reference
	want map[string]string // system key → x_hash of the library's solve; fixed before any job is sent
	idsM sync.Mutex
	ids  splitmix64 // seeded trace/span id stream

	upload     *csrMatrix
	uploadText []byte

	retriesM sync.Mutex
	retries  int // client resubmissions after a 429
}

// traceparent draws a W3C traceparent from the seeded id stream and returns
// it with its span id.
func (s *serviceRun) traceparent() (header, spanID string) {
	s.idsM.Lock()
	defer s.idsM.Unlock()
	spanID = fmt.Sprintf("%016x", s.ids.next()|1)
	return fmt.Sprintf("00-%016x%016x-%s-01", s.ids.next()|1, s.ids.next(), spanID), spanID
}

// coldJob is the first job set-up sends to an operator. The upload's is the
// canonical b = A·1, the only right-hand side of it the benchmark can rebuild
// (see reference.expectedHash).
func coldJob(i int, t jobTemplate) job {
	j := job{index: -1 - i, class: t.class, req: t.req}
	j.req.RHSSeed = 1
	if t.req.Problem == uploadName {
		j.req.RHSSeed = 0
	}
	return j
}

// prepareReferences solves, through the library, every system the run can
// submit, so that each reply's x_hash has an expected value before the first
// job is sent. It is the benchmark checking itself, not the system's set-up,
// so it is counted in neither setup_s nor the timed section.
func (s *serviceRun) prepareReferences() {
	seeds := rhsSeeds
	if s.w.burst > 0 {
		seeds = s.w.burst
	}
	for i, t := range s.templates() {
		jobs := []job{coldJob(i, t)}
		for seed := 1; seed <= seeds; seed++ {
			j := job{req: t.req}
			j.req.RHSSeed = uint64(seed)
			jobs = append(jobs, j)
		}
		for _, j := range jobs {
			if _, ok := s.want[j.systemKey()]; ok {
				continue
			}
			h, err := s.ref.expectedHash(j.req)
			if err != nil {
				s.g.fail("library reference %s: %v", j.systemKey(), err)
				continue
			}
			s.want[j.systemKey()] = h
		}
	}
}

// verify is the correctness gate of one job reply.
func (s *serviceRun) verify(j job, st jobStatus, err error) error {
	if err != nil {
		return fmt.Errorf("job %d (%s): %w", j.index, j.systemKey(), err)
	}
	if !st.Converged || st.State != "converged" {
		return fmt.Errorf("job %d (%s): state %q converged=%v error=%q", j.index, j.systemKey(), st.State, st.Converged, st.Error)
	}
	if err := s.g.agree(j.systemKey(), st.XHash); err != nil {
		return err
	}
	if want := s.want[j.systemKey()]; want != "" && want != st.XHash {
		return fmt.Errorf("job %d (%s): x_hash %s differs from the library solve's %s", j.index, j.systemKey(), st.XHash, want)
	}
	if j.req.IncludeX {
		a := s.ref.mats[opKey(j.req)]
		return s.g.checkIterate(j.systemKey(), st.Converged, a, st.X, s.ref.rhs(j.req), solveRelTol)
	}
	return nil
}

// templates lists every (operator, method) the workload submits, the first
// being its commonest operator.
func (s *serviceRun) templates() []jobTemplate {
	if s.w.burst > 0 {
		return []jobTemplate{{"small", solveRequest{Problem: "poisson125", N: s.cfg.scaledDim(20), Method: "pcg"}}}
	}
	small, medium, heavy := mixTemplates(s.cfg)
	return append(small, medium, heavy)
}

// deploy is one full set-up: start the daemon(s) (and router), upload the
// matrix, and send every operator one cold and one warm job. With check set,
// the cold job of each operator asks for its iterate and is residual-checked.
func (s *serviceRun) deploy(rep int, root *open, check bool) (*deployment, error) {
	op := fmt.Sprintf("setup-%d", rep)
	setup := s.log.begin(root, op, "setup")
	defer setup.end()
	t0 := time.Now()
	d := &deployment{daemons: map[string]string{}, shardOf: map[string]string{}}
	opts := daemonOptions{traceSeed: s.cfg.seed + 1}
	if s.cfg.traced {
		opts.flightJobs = tracedFlightJobs
	}
	if s.w.burst > 0 {
		opts.coalesceWidth, opts.coalesceWindow = burstCoalesceWidth, burstCoalesceWindow
	}

	sp := s.log.begin(setup, op, "daemon_start")
	var shards []shardAddr
	for i := 0; i < max(1, s.w.shards); i++ {
		o := opts
		if s.w.shards > 0 {
			o.shard = fmt.Sprintf("s%d", i)
			o.traceSeed += uint64(i)
		}
		dm, err := startDaemon(o)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.stops = append(d.stops, dm.stop)
		d.daemons[o.shard] = dm.url
		shards = append(shards, shardAddr{o.shard, dm.url})
		d.front = dm.url
	}
	if s.w.shards > 0 {
		rt, err := startRouter(shards, opts.flightJobs, s.cfg.seed+100)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.stops = append(d.stops, rt.stop)
		d.router, d.front = rt, rt.url
	}
	sp.end()

	c := newClient()
	defer c.close()
	if s.w.burst == 0 {
		sp = s.log.begin(setup, op, "upload")
		t := time.Now()
		_, code, err := c.do(http.MethodPut, d.front+"/v1/matrices/"+uploadName, s.uploadText, nil)
		d.uploadS = time.Since(t).Seconds()
		sp.end()
		if err == nil && code != http.StatusCreated {
			err = fmt.Errorf("PUT /v1/matrices: HTTP %d", code)
		}
		s.g.check(err)
		if err != nil {
			d.stop()
			return nil, err
		}
	}

	sp = s.log.begin(setup, op, "warmup")
	for i, t := range s.templates() {
		cold := coldJob(i, t)
		cold.req.IncludeX = check
		t1 := time.Now()
		st, hdr, err := c.solve(d.front, cold.req)
		coldS := time.Since(t1).Seconds()
		s.g.check(s.verify(cold, st, err))
		d.shardOf[opKey(t.req)] = hdr.Get("X-Cluster-Shard")

		warm := cold
		warm.req.IncludeX = false
		t1 = time.Now()
		st, _, err = c.solve(d.front, warm.req)
		d.buildS += math.Max(0, coldS-time.Since(t1).Seconds())
		s.g.check(s.verify(warm, st, err))
	}
	sp.end()
	d.totalS = time.Since(t0).Seconds()
	return d, nil
}

// probe is solve_s and pcg_solve_s on a service workload: both methods
// in-process on one of the workload's operators, alone — what a solve costs
// with no service around it, the floor under job_p50_s. A chunk of solves
// runs after every set-up and after the timed section, while the daemons
// idle, so the medians see the same stretch of machine time as the job
// metrics instead of one half-second of it.
type probe struct {
	a         *csrMatrix
	op        operator
	pc        precondT
	b         []float64
	pipe, pcg sample
}

const (
	probeChunk        = 8 // solves per method per chunk
	maxSetupRepeats   = 5
	cheapSetupSeconds = 2.0 // set-ups are repeated past three only while their sum is below this
)

func (s *serviceRun) newProbe() *probe {
	// The mix is probed on its medium operator (poisson7 n=24): the 3 ms
	// solves of the small operators are mostly pool wake-ups, and their
	// median swung up to 23 % between runs where 10-40 ms solves swing 6-10 %.
	r := s.templates()[0].req
	if s.w.burst == 0 {
		_, medium, _ := mixTemplates(s.cfg)
		r = medium.req
	}
	r.RHSSeed = 1
	a := s.ref.mats[opKey(r)]
	return &probe{a: a, op: s.ref.ops[opKey(r)], pc: newJacobi(a, 0, a.Rows), b: s.ref.rhs(r)}
}

func (p *probe) chunk(s *serviceRun) {
	for i := 0; i < s.cfg.calls(probeChunk); i++ {
		for _, m := range []string{"pcg", "pipe-pscg"} {
			t0 := time.Now()
			res, _, err := seqSolve(p.op, p.pc, m, p.b, nil)
			el := time.Since(t0).Seconds()
			if err != nil {
				s.g.fail("probe %s: %v", m, err)
				continue
			}
			s.g.check(s.g.checkIterate("probe "+m, res.Converged, p.a, res.X, p.b, solveRelTol))
			if m == "pcg" {
				p.pcg = append(p.pcg, el)
			} else {
				p.pipe = append(p.pipe, el)
			}
		}
	}
}

// sendOne runs one job of the list through base and records it.
func (s *serviceRun) sendOne(c *client, base string, j job, withTrace bool, round *open) done {
	dn := done{job: j, traced: withTrace}
	if withTrace {
		j.req.TraceParent, dn.spanID = s.traceparent()
	}
	t0 := time.Now()
	st, hdr, err := c.solve(base, j.req)
	t1 := time.Now()
	dn.start, dn.end, dn.latency = t0.UnixNano(), t1.UnixNano(), t1.Sub(t0).Seconds()
	dn.id, dn.width, dn.shard = st.ID, max(1, st.BatchWidth), hdr.Get("X-Cluster-Shard")
	dn.tries, _ = strconv.Atoi(hdr.Get("X-Cluster-Attempts"))
	s.g.check(s.verify(j, st, err))
	if withTrace {
		s.log.add(span{ID: dn.spanID, Parent: round.id(), Op: fmt.Sprintf("job-%d", j.index),
			Name: "client_submit", Layer: "benchmark", Start: dn.start, End: dn.end})
	}
	return dn
}

// closedLoop runs the workload's clients against the list until the budget is
// spent: each client sends its next job only after the previous reply. route
// picks the base URL per job (the router, or in the direct phase of the
// cluster's traced pass the shard that owns the operator). In the traced
// pass every other job carries a traceparent.
func (s *serviceRun) closedLoop(list *jobList, budget float64, route func(job) string, root *open, name string) ([]done, float64) {
	round := s.log.begin(root, name, "round")
	defer round.end()
	var mu sync.Mutex
	var all []done
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(budget * float64(time.Second)))
	for i := 0; i < s.w.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for sent := 0; sent < 3 || time.Now().Before(deadline); sent++ {
				j := list.take()
				dn := s.sendOne(c, route(j), j, s.cfg.traced && j.index%2 == 1, round)
				mu.Lock()
				all = append(all, dn)
				mu.Unlock()
			}
			s.retriesM.Lock()
			s.retries += c.retries
			s.retriesM.Unlock()
		}()
	}
	wg.Wait()
	return all, time.Since(start).Seconds()
}

// burstLoop is serve_burst's timed section: bursts of k jobs that differ only
// in rhs_seed, submitted asynchronously on one connection and collected from
// their event streams, until the budget is spent. Solo twins of every
// rhs_seed are solved first, one at a time, so every burst hash has a
// baseline to equal.
func (s *serviceRun) burstLoop(base string, budget float64, root *open) (solo, burst []done, wall float64) {
	t := s.templates()[0]
	c := newClient()
	defer c.close()
	k := s.w.burst
	mk := func(index, seed int) job {
		j := job{index: index, class: t.class, req: t.req}
		j.req.RHSSeed = uint64(seed)
		return j
	}
	round := s.log.begin(root, "solo", "round")
	for i := 0; i < 2*k; i++ {
		solo = append(solo, s.sendOne(c, base, mk(-100-i, 1+i%k), false, round))
	}
	round.end()

	round = s.log.begin(root, "bursts", "round")
	defer round.end()
	start := time.Now()
	next := 0
	for b := 0; b < 3 || time.Since(start).Seconds() < budget; b++ {
		jobs := make([]job, k)
		dns := make([]done, k)
		ids := make([]string, k)
		for i := range jobs {
			jobs[i] = mk(next, 1+i)
			next++
			dns[i] = done{job: jobs[i], traced: s.cfg.traced && b%2 == 1}
			if dns[i].traced {
				jobs[i].req.TraceParent, dns[i].spanID = s.traceparent()
			}
			dns[i].start = time.Now().UnixNano()
			id, err := c.submit(base, jobs[i].req)
			if err != nil {
				s.g.fail("burst submit: %v", err)
			}
			ids[i] = id
		}
		var wg sync.WaitGroup
		for i := range jobs {
			if ids[i] == "" {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				st, err := c.await(base, ids[i])
				dns[i].end = time.Now().UnixNano()
				dns[i].latency = float64(dns[i].end-dns[i].start) / 1e9
				dns[i].id, dns[i].width = st.ID, max(1, st.BatchWidth)
				s.g.check(s.verify(jobs[i], st, err))
			}(i)
		}
		wg.Wait()
		for i, dn := range dns {
			if ids[i] == "" {
				continue
			}
			if dn.traced {
				s.log.add(span{ID: dn.spanID, Parent: round.id(), Op: fmt.Sprintf("job-%d", dn.job.index),
					Name: "client_submit", Layer: "benchmark", Start: dn.start, End: dn.end})
			}
			burst = append(burst, dn)
		}
	}
	return solo, burst, time.Since(start).Seconds()
}

func latencies(ds []done, keep func(done) bool) sample {
	var s sample
	for _, d := range ds {
		if keep == nil || keep(d) {
			s = append(s, d.latency)
		}
	}
	return s
}

func runServiceWorkload(cfg runConfig, g *gate, log *spanLog, notef func(string, ...any)) (metrics, error) {
	s := &serviceRun{cfg: cfg, w: serviceWorkloads[cfg.workload], g: g, log: log,
		ref:  &reference{mats: map[string]*csrMatrix{}, ops: map[string]operator{}},
		want: map[string]string{}, ids: splitmix64(cfg.seed ^ 0x7472616365)} // "trace"
	root := log.begin(nil, "workload", "workload")
	defer root.end()

	if s.w.burst == 0 {
		var err error
		if s.upload, s.uploadText, err = shuffledLaplacian(cfg); err != nil {
			return nil, err
		}
	}
	for _, t := range s.templates() {
		s.ref.add(t.req, s.upload)
	}

	s.prepareReferences()

	// Set-up is rebuilt at least three times, and cheap ones more often (up
	// to five, within two seconds), so setup_s is a median that one slow
	// build does not move. The last deployment stays up for the clients.
	pr := s.newProbe()
	var dep *deployment
	var setups sample
	for rep := 0; ; rep++ {
		built := rep + 1
		last := built >= cfg.setupRepeats() &&
			(cfg.setupRepeats() == 1 || built >= maxSetupRepeats || setups.sum() >= cheapSetupSeconds)
		d, err := s.deploy(rep, root, last)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.totalS)
		if !cfg.traced {
			pr.chunk(s)
		}
		if last {
			dep = d
			break
		}
		d.stop()
	}
	defer dep.stop()
	notef("deployment: %d daemon(s), router=%v, %d closed-loop client(s); set-up built %d time(s)",
		len(dep.daemons), dep.router != nil, s.w.clients, len(setups))

	out := metrics{}
	var timed []done
	var wall float64
	budget := cfg.seconds
	switch {
	case s.w.burst > 0:
		if cfg.traced {
			budget *= 0.7 // the rest of the traced pass times the gang directly
		}
		solo, burst, w := s.burstLoop(dep.front, budget, root)
		timed, wall = burst, w
		q1, q3 := latencies(solo, nil).quartiles()
		notef("solo baseline n=%d median %.4fs quartiles [%.4f, %.4f]", len(solo), latencies(solo, nil).median(), q1, q3)
	case s.w.shards > 0 && cfg.traced:
		// Same list, same clients, same placement: first through the
		// router, then straight to the shard that owns each operator.
		list := newJobList(cfg, true)
		via, viaWall := s.closedLoop(list, budget/2, func(job) string { return dep.front }, root, "via-router")
		direct, directWall := s.closedLoop(list, budget/2, func(j job) string {
			return dep.daemons[dep.shardOf[opKey(j.req)]]
		}, root, "direct")
		timed, wall = via, viaWall
		if len(direct) > 0 && directWall > 0 {
			out["cluster.throughput_ratio_vs_direct"] = (float64(len(via)) / viaWall) / (float64(len(direct)) / directWall)
		}
	default:
		timed, wall = s.closedLoop(newJobList(cfg, s.w.shards > 0), budget, func(job) string { return dep.front }, root, "clients")
	}

	all := latencies(timed, nil)
	q1, q3 := all.quartiles()
	p95, q := all.tail(0.95)
	notef("jobs n=%d in %.2fs: median %.4fs quartiles [%.4f, %.4f]; job_p95_s is the %.1fth percentile (%d samples beyond it)",
		len(all), wall, all.median(), q1, q3, 100*q, int(math.Round(float64(len(all))*(1-q))))
	for _, t := range s.templates() {
		if l := latencies(timed, func(d done) bool { return opKey(d.job.req) == opKey(t.req) }); len(l) > 0 {
			notef("  %-6s %-22s n=%d median %.4fs p95 %.4fs", t.class, opKey(t.req)+" "+t.req.Method, len(l), l.median(), l.quantile(0.95))
		}
	}

	if !cfg.traced {
		pr.chunk(s)
		notef("probe: %d in-process solves per method", len(pr.pipe))
		return metrics{
			"setup_s":     setups.median(),
			"solve_s":     pr.pipe.median(),
			"pcg_solve_s": pr.pcg.median(),
			"jobs_per_s":  float64(len(timed)) / wall,
			"job_p50_s":   all.median(),
			"job_p95_s":   p95,
			"peak_rss_mb": peakRSSMB(),
		}, nil
	}

	machineLedger(out, cfg)
	out["serve.upload_s"] = dep.uploadS
	out["serve.registry_build_s"] = dep.buildS
	out["serve.client_retries"] = float64(s.retries)
	if err := s.serviceLedger(out, dep, timed, wall); err != nil {
		return nil, err
	}
	if s.w.burst > 0 {
		s.gangLedger(out)
	}
	return out, nil
}
