// Command benchmark is the repository's performance ledger: six workloads,
// seven end-to-end metrics and a per-layer ledger, measured from outside the
// program through its public functions and its HTTP API. BENCHMARK.json at
// the repository root lists every name it prints; README.md says how each is
// taken and what it should move.
//
// One run measures one workload:
//
//	bash benchmark/run.sh --workload solve_vector --seed 1 --seconds 12 --trace 0
//
// prints the end-to-end metrics (tracing off), --trace 1 the per-layer
// metrics (tracers attached, traceparent sent, span file written). Without
// --workload the command re-executes itself once per workload and pass, so
// heap state and peak_rss_mb never leak between workloads, and prints the
// whole ledger; --repeat 2 does that twice and fails when the two sets
// disagree by more than the benchmark's own bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload (default: all six, each in its own process)")
		seed     = flag.Uint64("seed", 1, "every input is a pure function of this seed")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed section of one run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
		scale    = flag.Float64("scale", 1, "shrink problem sizes, call counts and seconds by this factor (smoke runs)")
		repeat   = flag.Int("repeat", 1, "with no -workload: run this many full sets and compare them")
		outDir   = flag.String("out", ".bench_out", "directory for span files")
		printMf  = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *printMf {
		data, _ := json.MarshalIndent(theManifest(), "", "  ")
		fmt.Println(string(data))
		return
	}
	if *workload == "" {
		os.Exit(runAll(*seed, *seconds, *scale, *repeat, *outDir))
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds * min(*scale, 1), scale: *scale,
		traced: *trace != 0, outDir: *outDir}
	res, err := runOne(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	os.Exit(exitCode(res))
}

// exitCode is non-zero when any operation of the run failed its gate.
func exitCode(res resultLine) int {
	if !res.Correct {
		return 1
	}
	return 0
}

// runOne measures one workload in this process and returns its result line.
// Human-readable notes go to w as they are produced.
func runOne(cfg runConfig, w io.Writer) (resultLine, error) {
	notef := func(format string, args ...any) { fmt.Fprintf(w, "# "+format+"\n", args...) }
	m := readMachine()
	notef("machine: nproc=%d GOMAXPROCS=%d %s, %s, caches %s", m.NProc, m.GoMaxProcs, m.GoVersion, m.CPUModel, m.Caches)
	notef("workload=%s seed=%d seconds=%.2f trace=%v scale=%g", cfg.workload, cfg.seed, cfg.seconds, cfg.traced, cfg.scale)
	setWorkers(m.GoMaxProcs)

	g := newGate()
	var log *spanLog
	if cfg.traced {
		log = &spanLog{}
	}
	var got metrics
	switch {
	case solveWorkloads[cfg.workload].gridN != 0:
		got = runSolveWorkload(cfg, g, log, notef)
	case serviceWorkloads[cfg.workload].clients != 0:
		var err error
		if got, err = runServiceWorkload(cfg, g, log, notef); err != nil {
			return resultLine{}, err
		}
	default:
		return resultLine{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}

	defs := endToEndDefs
	if cfg.traced {
		defs = perLayerDefs
		got["krylov.true_relres_max"] = g.relresMax
		spans := log.all()
		if err := checkSpans(spans); err != nil {
			g.fail("span file: %v", err)
		}
		path := filepath.Join(cfg.outDir, "spans_"+cfg.workload+".json")
		if err := writeChromeTrace(path, spans); err != nil {
			return resultLine{}, err
		}
		notef("%d spans written to %s", len(spans), path)
	}

	res := resultLine{Attempted: g.attempted, Failed: g.failed, Correct: g.failed == 0 && g.attempted > 0,
		Metrics: map[string]metricValue{}}
	for _, f := range g.failures {
		notef("FAILED: %s", f)
	}
	keys := make([]string, 0, len(g.hashes))
	for k := range g.hashes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "x_hash %s %s\n", k, g.hashes[k])
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: got[d.Name], Unit: d.Unit}
		fmt.Fprintf(w, "%-40s %14.6g %s\n", d.Name, got[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "attempted %d succeeded %d failed %d\n", g.attempted, g.attempted-g.failed, g.failed)
	return res, nil
}
