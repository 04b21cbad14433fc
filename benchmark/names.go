package main

// names.go is the single list of everything the benchmark reports.
// BENCHMARK.json at the repository root is this file in the contract's
// format (`-manifest` prints it) and names_test.go fails when they differ.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"solve_vector", "seq engine, matrix-free 7-pt Poisson 48^3, Jacobi: SpMV is cheap, so s-step multivector work (vec Gram/LCs) dominates and comm does nothing"},
	{"solve_spmv", "seq engine, assembled 125-pt Poisson 32^3 (3.7M nnz CSR): the matrix sweep dominates, vector work is small; assembly cost lands in setup_s"},
	{"solve_latency", "comm runtime, 2 ranks, 1 ms injected hop, 7-pt Poisson 32^3: the paper's regime, reductions and halos set the time, overlap decides"},
	{"serve_mixed", "one solverd, 2 closed-loop HTTP clients, seeded 70/22/8 small/medium/2-rank mix incl. an uploaded matrix: HTTP, registry, queue, shared pool"},
	{"cluster_mixed", "the serve_mixed job list (plus job keys) through a router over two solverd shards: the delta to serve_mixed is the router hop and ring placement"},
	{"serve_burst", "one solverd with coalescing (width 8, 2 ms window), bursts of 8 jobs differing only in rhs_seed: queue, coalescer, blockcg gang, block SpMV"},
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	// Exact marks a per-layer count that must repeat exactly between two
	// runs of the same code and seed; -repeat fails when one differs.
	Exact bool `json:"-"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// End-to-end metrics. Bounds are the shares of the parent's median by which
// a metric may worsen; README.md records the measured spreads behind them.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "solve_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "pcg_solve_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "jobs_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "job_p50_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "job_p95_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.25},
}

var perLayerDefs = []metricDef{
	// sparse — measured on solve_spmv
	{Name: "sparse.csr_mulvec_ns_per_nnz", Unit: "ns", Better: lower},
	{Name: "sparse.csr_mulvec_gbps_computed", Unit: "GB/s", Better: higher},
	{Name: "sparse.csr_mulmat_k8_ns_per_nnz_rhs", Unit: "ns", Better: lower},
	{Name: "sparse.assemble_s", Unit: "s", Better: lower},
	// grid — solve_vector
	{Name: "grid.stencil_mulvec_ns_per_row", Unit: "ns", Better: lower},
	{Name: "grid.stencil_fused_ns_per_row", Unit: "ns", Better: lower},
	// vec — solve_vector
	{Name: "vec.gram_ns_per_row", Unit: "ns", Better: lower},
	{Name: "vec.pipelined_update_ns_per_row", Unit: "ns", Better: lower},
	{Name: "vec.dots_against_ns_per_row", Unit: "ns", Better: lower},
	{Name: "vec.dot_ns_per_row", Unit: "ns", Better: lower},
	{Name: "vec.axpy_gbps_computed", Unit: "GB/s", Better: higher},
	// par — solve_vector
	{Name: "par.region_overhead_ns", Unit: "ns", Better: lower},
	{Name: "par.spmv_speedup_w", Unit: "ratio", Better: higher},
	{Name: "par.contended_slowdown", Unit: "ratio", Better: lower},
	// precond — solve_vector, solve_spmv
	{Name: "precond.jacobi_apply_ns_per_row", Unit: "ns", Better: lower},
	{Name: "precond.setup_s", Unit: "s", Better: lower},
	// partition — solve_latency
	{Name: "partition.build_s", Unit: "s", Better: lower},
	{Name: "partition.halo_cols", Unit: "count", Better: lower, Exact: true},
	{Name: "partition.nnz_imbalance", Unit: "ratio", Better: lower, Exact: true},
	// krylov — every solve_*
	{Name: "krylov.iterations", Unit: "count", Better: lower, Exact: true},
	{Name: "krylov.outer_iterations", Unit: "count", Better: lower, Exact: true},
	{Name: "krylov.spmv_count", Unit: "count", Better: lower, Exact: true},
	{Name: "krylov.pc_count", Unit: "count", Better: lower, Exact: true},
	{Name: "krylov.allreduce_count", Unit: "count", Better: lower, Exact: true},
	{Name: "krylov.iallreduce_count", Unit: "count", Better: lower, Exact: true},
	{Name: "krylov.reduce_words", Unit: "count", Better: lower, Exact: true},
	{Name: "krylov.flops_per_row_iter", Unit: "count", Better: lower, Exact: true},
	{Name: "krylov.phase_spmv_s", Unit: "s", Better: lower},
	{Name: "krylov.phase_pc_apply_s", Unit: "s", Better: lower},
	{Name: "krylov.phase_gram_s", Unit: "s", Better: lower},
	{Name: "krylov.phase_local_dots_s", Unit: "s", Better: lower},
	{Name: "krylov.phase_recurrence_lc_s", Unit: "s", Better: lower},
	{Name: "krylov.phase_allreduce_wait_s", Unit: "s", Better: lower},
	{Name: "krylov.phase_iallreduce_post_s", Unit: "s", Better: lower},
	{Name: "krylov.phase_halo_wait_s", Unit: "s", Better: lower},
	{Name: "krylov.unattributed_s", Unit: "s", Better: lower},
	{Name: "krylov.pcg_phase_spmv_s", Unit: "s", Better: lower},
	{Name: "krylov.pcg_phase_allreduce_wait_s", Unit: "s", Better: lower},
	{Name: "krylov.pipecg_solve_s", Unit: "s", Better: lower},
	{Name: "krylov.speedup_vs_pcg", Unit: "ratio", Better: higher},
	{Name: "krylov.true_relres_max", Unit: "ratio", Better: lower},
	// comm — solve_latency
	{Name: "comm.allreduce_s", Unit: "s", Better: lower},
	{Name: "comm.allreduce_zero_hop_s", Unit: "s", Better: lower},
	{Name: "comm.iallreduce_post_ns", Unit: "ns", Better: lower},
	{Name: "comm.iallreduce_complete_s", Unit: "s", Better: lower},
	{Name: "comm.halo_spmv_s", Unit: "s", Better: lower},
	{Name: "comm.hop_overshoot", Unit: "ratio", Better: lower},
	{Name: "comm.hidden_fraction", Unit: "ratio", Better: higher},
	{Name: "comm.exposed_wait_share", Unit: "ratio", Better: lower},
	{Name: "comm.msgs_per_iter", Unit: "count", Better: lower, Exact: true},
	{Name: "comm.words_per_iter", Unit: "count", Better: lower, Exact: true},
	// blockcg — serve_burst
	{Name: "blockcg.gang_per_rhs_speedup_k8", Unit: "ratio", Better: higher},
	// serve — serve_mixed, serve_burst, cluster_mixed (shards)
	{Name: "serve.queue_wait_p50_s", Unit: "s", Better: lower},
	{Name: "serve.queue_wait_p95_s", Unit: "s", Better: lower},
	{Name: "serve.coalesce_wait_p50_s", Unit: "s", Better: lower},
	{Name: "serve.solve_span_p50_s", Unit: "s", Better: lower},
	{Name: "serve.solve_span_p95_s", Unit: "s", Better: lower},
	{Name: "serve.http_overhead_p50_s", Unit: "s", Better: lower},
	{Name: "serve.worker_busy_share", Unit: "ratio", Better: higher},
	{Name: "serve.small_p50_s", Unit: "s", Better: lower},
	{Name: "serve.small_p95_s", Unit: "s", Better: lower},
	{Name: "serve.medium_p50_s", Unit: "s", Better: lower},
	{Name: "serve.registry_hit_share", Unit: "ratio", Better: higher},
	{Name: "serve.rejected_429", Unit: "count", Better: lower, Exact: true},
	{Name: "serve.client_retries", Unit: "count", Better: lower, Exact: true},
	{Name: "serve.batch_width_mean", Unit: "count", Better: higher},
	{Name: "serve.coalesced_share", Unit: "ratio", Better: higher},
	{Name: "serve.phase_share.spmv", Unit: "ratio", Better: lower},
	{Name: "serve.phase_share.gram", Unit: "ratio", Better: lower},
	{Name: "serve.phase_share.recurrence_lc", Unit: "ratio", Better: lower},
	{Name: "serve.phase_share.allreduce_wait", Unit: "ratio", Better: lower},
	{Name: "serve.registry_build_s", Unit: "s", Better: lower},
	{Name: "serve.upload_s", Unit: "s", Better: lower},
	// cluster — cluster_mixed
	{Name: "cluster.route_self_p50_s", Unit: "s", Better: lower},
	{Name: "cluster.route_self_p95_s", Unit: "s", Better: lower},
	{Name: "cluster.small_p50_s", Unit: "s", Better: lower},
	{Name: "cluster.throughput_ratio_vs_direct", Unit: "ratio", Better: higher},
	{Name: "cluster.attempts_per_job", Unit: "ratio", Better: lower},
	{Name: "cluster.retries", Unit: "count", Better: lower, Exact: true},
	{Name: "cluster.failovers", Unit: "count", Better: lower, Exact: true},
	{Name: "cluster.shard_share_max", Unit: "ratio", Better: lower},
	// obs
	{Name: "obs.span_pair_ns", Unit: "ns", Better: lower},
	{Name: "obs.tracer_overhead_share", Unit: "ratio", Better: lower},
	{Name: "obs.traceparent_overhead_share", Unit: "ratio", Better: lower},
	{Name: "obs.flight_dump_bytes", Unit: "count", Better: lower},
	// sim — solve_latency problem
	{Name: "sim.speedup_vs_pcg_120n", Unit: "ratio", Better: higher, Exact: true},
	// machine — every workload
	{Name: "machine.triad_gbps", Unit: "GB/s", Better: higher},
	{Name: "machine.nproc", Unit: "count", Better: higher, Exact: true},
	{Name: "machine.gomaxprocs", Unit: "count", Better: higher, Exact: true},
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 12

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func theManifest() manifest {
	return manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
}
