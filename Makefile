GO ?= go

.PHONY: all build test race vet fmt-check layering loc bench bench-check bench-kernels perf fuzz results-check chaos serve-smoke cluster-chaos audit variant-audit timeline batch-smoke trace-smoke tier1

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the concurrency-bearing packages: the worker pool, the
# goroutine-rank communication runtime (which shares the pool across ranks),
# the solver service (registry LRU, job manager, drain), the span tracer
# (shared by all ranks' reductions in flight), and the hot-path kernel
# packages (chunk-plan caches, fused folds, stencil kernels).
# The two invocations are deliberate: go test runs package binaries in
# parallel, and the kernel packages saturate the worker pool — co-scheduling
# them with the timing-sensitive serve drain smoke makes its deadline flaky.
race:
	$(GO) test -race ./internal/par/... ./internal/comm/... ./internal/serve/... ./internal/cluster/... ./internal/audit/... ./internal/obs/... ./internal/blockcg/... ./internal/workload/...
	$(GO) test -race ./internal/sparse/... ./internal/grid/... ./internal/vec/...

vet:
	$(GO) vet ./...

fmt-check:
	test -z "$$(gofmt -l cmd internal examples benchmark bench_test.go)"

# Layering gate (DESIGN.md §4): the production daemons link no harness — not
# the differential audit, not the paper's experiments, not the simulator or
# its cost model. internal/workload is the shared assembly below all of them.
layering:
	! $(GO) list -deps ./cmd/solverd ./cmd/solverouter | grep -E '^repro/internal/(audit|bench|sim|perfmodel)$$'

# Go line counts, non-test and test, per top-level package and in total: run
# it on the parent commit and on the change to state a PR's LoC delta.
loc:
	@printf '%-22s %8s %8s\n' package non-test test; \
	for d in cmd examples benchmark internal/*; do \
		printf '%-22s %8d %8d\n' $$d \
			$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) \
			$$(find $$d -name '*_test.go' | xargs cat | wc -l); \
	done; \
	printf '%-22s %8d %8d\n' total \
		$$(find . -name '*.go' ! -name '*_test.go' ! -path './.*' | xargs cat | wc -l) \
		$$(find . -name '*_test.go' ! -path './.*' | xargs cat | wc -l)

# Seeded fault-injection suite under the race detector: the injector, the
# deadline/ack-resend/checksum machinery, the mailbox leak check, the chaos
# matrix over solvers × fault scenarios × rank counts, and the escalation
# goldens (SolveLadder and Hybrid pinned on seq and comm P=1).
chaos:
	$(GO) test -race -run 'Chaos|Fault|Resilience|Ladder|Leak|Timeout|Deadlock|Straggler|Checksum|RecoverPolicy|Injector|SendBufferReuse|RunErr|CloseCancels|EscalationGoldens' ./internal/comm ./internal/krylov

# Solver-service smoke: a real daemon on an ephemeral port, 32 concurrent
# closed-loop clients over 4 registry entries, zero lost jobs, graceful
# drain, goroutine-leak assertion — all under the race detector.
serve-smoke:
	$(GO) test -race -run TestServeSmoke -v -count=1 ./internal/serve

# Inter-daemon chaos: three real solverd shards behind a solverouter on real
# sockets, a keyed load, and a SIGKILL-equivalent crash of one shard staged
# mid-solve — zero lost jobs, exactly-once retries via idempotency keys,
# x_hash bit-identical to the single-daemon baseline, goroutine-leak
# assertion — all under the race detector.
cluster-chaos:
	$(GO) test -race -run TestClusterChaos -v -count=1 ./internal/cluster

# Differential correctness harness: a seeded config sweep through every
# runtime (seq, sim, comm P∈{1,4,7}) judged for bit-identity, cross-rank
# outcome equivalence, true-residual drift, and history invariants — plus
# the harness's own self-tests — under the race detector.
audit:
	$(GO) test -race -count=1 -run 'TestAudit|TestGenerate|TestParseConfig|TestDrift|TestGram|TestComparator|TestInvariants|TestExecute|TestLedger' ./internal/audit

# Stability-aware variant family gate: a seeded 50-config differential sweep
# restricted to pipe-pr-cg / pipe-m-cg-rr (default and explicit replacement
# cadences, bit tier across seq/sim/commP1, outcome tier cross-P) with zero
# violations, plus the rr wire-format round-trip and the shrinker's
# cadence-validity regression — under the race detector.
variant-audit:
	$(GO) test -race -count=1 -run 'TestVariant|TestShrinkKeepsCadenceValid' ./internal/audit

# Timeline export smoke: an instrumented PIPE-PsCG solve at P=4 plus a
# breakdown-restart demo (its log line must show recovery spans > 0),
# written as Chrome trace-event JSON and validated
# (well-formed complete events, every phase present on every rank, overlap
# ledger attached).
timeline:
	$(GO) run ./cmd/timeline -o /tmp/repro-timeline.json
	$(GO) run ./cmd/timeline -check /tmp/repro-timeline.json

# Distributed-tracing smoke: a client-originated traced job through a real
# solverouter against two real solverd shards, all four flight dumps
# stitched into ONE Chrome trace (client submit → route → attempt → queue
# wait → solve → per-rank phases) and validated for parent linkage, unique
# span IDs, no orphans, and the per-rank phase floor — first in-process
# under the race detector, then re-checked from the written artifact by the
# standalone validator. The failover leg kills the primary mid-stream and
# pins trace_id continuity across the retry.
trace-smoke:
	$(GO) test -race -run 'TestTraceSmoke|TestFailoverTracePropagation' -v -count=1 ./internal/cluster
	$(GO) run ./cmd/timeline -check /tmp/repro-trace-smoke.json

# Multi-RHS coalescing smoke: a real daemon with batching on, a burst of
# seeded jobs behind a queue plug so the coalescer sees a full backlog,
# per-job x_hash bit-identical to the unbatched baseline, batch-width
# metrics visible, graceful drain, goroutine-leak assertion — all under
# the race detector.
batch-smoke:
	$(GO) test -race -run TestBatchSmoke -v -count=1 ./internal/serve

# tier1 is the gate every change must pass: build, vet, gofmt, the layering
# rule, full tests, the
# race detector over the concurrent packages, the chaos suite, the
# solver-service smoke, the multi-RHS coalescing smoke, the inter-daemon
# cluster chaos run, the differential audit sweep, the timeline export
# smoke, the distributed-tracing smoke, the hot-path kernel perf smoke, and
# the nested benchmark module's own vet + tests.
tier1: build vet fmt-check layering test race chaos serve-smoke batch-smoke cluster-chaos audit variant-audit timeline trace-smoke perf bench-check

# The repository's performance ledger (BENCHMARK.json): six workloads ×
# {untraced, traced}, ~3.5 min. Pass one workload with
# `bash benchmark/run.sh --workload solve_vector --seed 1 --seconds 12 --trace 0`.
bench:
	bash benchmark/run.sh

# benchmark/ is its own module (replace repro => ../), so the root
# `go test ./...` never compiles it: a refactor that moves a surface
# benchmark/adapter.go calls would break the benchmark unseen.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Hot-path kernel perf smoke: the stencil-vs-CSR SPMV pair, the fused
# powers-block step, the fused s-step vector sweep, the comm collectives
# (blocking and posted, 8 and 16 ranks), the matrix powers block (depth 3,
# hop 0 and 200 µs) and its plan build, and the worker pool under 1, 2 and 4
# concurrent callers, run short (100 iterations, 3 samples; 2000 of the
# microsecond-scale pool regions) so tier1 catches a kernel that stops
# compiling or collapses, without turning the gate into a benchmark farm.
# Assembly runs 5 iterations (the 125-point 32³ operator, the 7-point 48³ one
# and a scattered Builder): a slide back to a global sort shows as ~10×. The
# CSR kernels run MulVec and the k=8 MulMat on the 125-point 20³ and 32³
# operators at the cost model's 12 B per entry; Box125 runs the same products
# through the assembled matrix and the matrix-free box kernel side by side at
# 12³, 20³ and 32³.
# cmd/perfreport produces the committed BENCH_pr6.json.
perf:
	$(GO) test -bench 'SpMV3D|SpMV2D|Star7Lines|PowersStep|BasisVector' -benchtime=100x -count=3 -run xxx ./internal/grid
	$(GO) test -bench 'Laplacian' -benchtime=5x -count=3 -run xxx ./internal/grid
	$(GO) test -bench 'Box125' -benchtime=20x -count=3 -run xxx ./internal/grid
	$(GO) test -bench 'BuilderBuild' -benchtime=5x -count=3 -run xxx ./internal/sparse
	$(GO) test -bench 'CSRBox125' -benchtime=20x -count=3 -run xxx ./internal/sparse
	$(GO) test -bench 'SStepSweep' -benchtime=100x -count=3 -run xxx ./internal/vec
	$(GO) test -bench '[Aa]llreduce(8|16)|PowersExchange' -benchtime=100x -count=3 -run xxx ./internal/comm
	$(GO) test -bench 'BuildPowersPlans' -benchtime=100x -count=3 -run xxx ./internal/partition
	$(GO) test -bench 'PoolContended' -benchtime=2000x -count=3 -run xxx ./internal/par

# Native fuzzing of the untrusted-input parsers (MatrixMarket uploads, W3C
# traceparent headers, audit repro lines, solve request bodies, Retry-After
# values) beyond their committed seed corpora (testdata/fuzz, which plain
# `go test` already runs).
# Not part of tier1: a fuzz run is open-ended exploration, not a gate.
fuzz:
	$(GO) test -run xxx -fuzz FuzzReadMatrixMarket -fuzztime 30s -parallel 2 ./internal/sparse
	$(GO) test -run xxx -fuzz FuzzParseTraceparent -fuzztime 30s -parallel 2 ./internal/obs
	$(GO) test -run xxx -fuzz FuzzParseConfig -fuzztime 30s -parallel 2 ./internal/audit
	$(GO) test -run xxx -fuzz FuzzSolveRequest -fuzztime 30s -parallel 2 ./internal/serve
	$(GO) test -run xxx -fuzz FuzzParseRetryAfter -fuzztime 30s -parallel 2 ./cmd/solverbench

# The committed paper records: regenerate all seven tables and figures at
# paper scale into a fresh directory, one figure per process so the peak is
# the largest figure's (about 3.3 GB, fig4) rather than their sum, and diff
# every results_* file against it. About 8 minutes on 2 cores, so not part
# of tier1; TestFiguresGolden pins the formats at a tiny scale there.
FIGURES := table1 fig1 fig2 table2 fig3 fig4 fig5

results-check:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o "$$d/repro" ./cmd/repro && \
	for n in $(FIGURES); do "$$d/repro" -full -out "$$d" $$n || exit 1; done && \
	for f in results_*; do diff -u "$$f" "$$d/$$f" || exit 1; done && \
	echo "results-check: all committed records reproduced byte for byte"

# Kernel-layer scaling benches: SPMV, Gram/dot, and the solver-level run at
# 1 worker versus all cores.
bench-kernels:
	$(GO) test -bench='SpMVParallel|GramParallel|DotParallel|RangeOverhead|PoolContended' ./internal/...
	$(GO) test -bench=SolverParallelKernels .
