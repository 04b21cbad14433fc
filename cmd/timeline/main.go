// Command timeline exports instrumented solves as a Chrome trace-event JSON
// file (load it in chrome://tracing or Perfetto). It runs two solves on the
// goroutine-rank comm runtime with a per-rank tracer attached:
//
//   - pid 0: the requested method (default PIPE-PsCG) at the requested rank
//     count, with injected hop latency so the overlap structure is visible —
//     posted reductions ride as "overlap" events carrying their measured
//     hidden fraction.
//   - pid 1: a breakdown-restart demo — PIPE-PsCG driven below its
//     attainable accuracy, so its s-step Gram matrix turns singular and the
//     solver rebuilds the basis from the current iterate while the restarts
//     still make progress (three times at the defaults, before the
//     divergence guard ends the run); the trace also covers the recovery
//     phase. Breakdown is decided on globally reduced values, so every rank
//     restarts at the same step.
//
// With -stitch the command instead merges flight-recorder dumps from every
// hop of a routed solve — solverbench (-trace-out), solverouter and each
// solverd (GET /v1/debug/flight or -flight-dump) — into ONE cross-process
// Chrome trace: pid = hop (client, router, shard...), spans on tid 0, and
// each shard's per-rank phase timelines on tid = rank, all on a shared wall
// axis. -trace narrows the stitch to one trace ID.
//
// Usage:
//
//	timeline -o trace.json
//	timeline -check trace.json   (validate an exported file and exit)
//	timeline -stitch bench.json,router.json,s0.json,s1.json -trace <id> -o stitched.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("timeline: ")
	var (
		n      = flag.Int("n", 24, "grid dimension (7-pt Poisson)")
		ranks  = flag.Int("ranks", 4, "goroutine ranks")
		method = flag.String("method", "pipe-pscg", "solver for the main solve (pid 0)")
		hop    = flag.Duration("hop", 200*time.Microsecond, "injected per-hop fabric latency")
		out    = flag.String("o", "timeline.json", "output trace file")
		check  = flag.String("check", "", "validate an exported trace file and exit")
		stitch = flag.String("stitch", "", "comma-separated flight-dump files to merge into one cross-process trace")
		trace  = flag.String("trace", "", "with -stitch: keep only this trace ID")
	)
	flag.Parse()

	if *check != "" {
		if err := checkTrace(*check); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *stitch != "" {
		if err := stitchDumps(*stitch, *trace, *out); err != nil {
			log.Fatal(err)
		}
		return
	}

	pr := workload.Poisson7(*n)
	meth, err := krylov.MethodByName(*method)
	if err != nil {
		log.Fatal(err)
	}

	opt := workload.DefaultOptions(pr)
	sums, res, err := tracedSolve(pr, *ranks, *hop, meth, opt)
	if err != nil {
		log.Fatal(err)
	}
	merged := obs.MergeSummaries(sums)
	log.Printf("pid 0: %s converged=%v iters=%d relres=%.2e hidden=%.2f",
		*method, res.Converged, res.Iterations, res.RelRes, merged.HiddenFraction())
	events := obs.AppendChromeEvents(nil, 0, sums)

	// Breakdown-restart demo: a tolerance below the recurrence's attainable
	// accuracy drives the Gram matrix singular; each breakdown that comes
	// after a 1 % gain rebuilds the basis instead of stopping.
	ropt := workload.DefaultOptions(pr)
	ropt.RelTol = 1e-30
	rsums, rres, err := tracedSolve(pr, *ranks, *hop, krylov.Method{Solve: krylov.PIPEPSCG}, ropt)
	if err != nil {
		log.Fatal(err)
	}
	rmerged := obs.MergeSummaries(rsums)
	log.Printf("pid 1: breakdown-restart demo brokedown=%v diverged=%v iters=%d recovery spans=%d",
		rres.BrokeDown, rres.Diverged, rres.Iterations, rmerged.Phases[obs.PhaseRecovery].Count)
	events = obs.AppendChromeEvents(events, 1, rsums)

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := obs.FinishChromeTrace(f, events); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d events, %d ranks × 2 solves)", *out, len(events), *ranks)
}

// tracedSolve runs one SPMD solve on a fresh fabric with a tracer per rank
// and returns the per-rank summaries plus rank 0's result.
func tracedSolve(pr workload.Problem, ranks int, hop time.Duration,
	meth krylov.Method, opt krylov.Options) ([]obs.Summary, *krylov.Result, error) {
	opt.WaitDeadline = 10 * time.Second
	out, err := workload.SPMD{Fabric: comm.NewFabric(ranks, hop), PC: "jacobi", Tracer: workload.DefaultTracer}.
		Run(pr, meth, pr.B, opt)
	if err != nil {
		return nil, nil, err
	}
	if out.Leak != nil {
		return nil, nil, fmt.Errorf("fabric leak: %v", out.Leak)
	}
	if r, err := out.FirstErr(); err != nil {
		return nil, nil, fmt.Errorf("rank %d: %v", r, err)
	}
	return out.Summaries, out.Res, nil
}

// checkTrace validates an exported file through obs.CheckChromeEvents: every
// event must be a well-formed complete ("X") event, span trees (stitched
// traces) must be intact — unique span IDs, no orphan parents, children
// starting no earlier than their parents, at least one root — and phase
// coverage plus the overlap ledger must have ridden along.
func checkTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []obs.ChromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: not valid trace JSON: %v", path, err)
	}
	rep, err := obs.CheckChromeEvents(doc.TraceEvents)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	fmt.Printf("ok: %s\n", rep)
	return nil
}

// stitchDumps merges flight-recorder dumps from every hop of a routed solve
// into one cross-process Chrome trace and writes it to outPath.
func stitchDumps(list, traceID, outPath string) error {
	var dumps []obs.FlightDump
	for _, path := range strings.Split(list, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var d obs.FlightDump
		if err := json.Unmarshal(data, &d); err != nil {
			return fmt.Errorf("%s: not a flight dump: %v", path, err)
		}
		dumps = append(dumps, d)
	}
	events, err := obs.StitchDumps(dumps, traceID)
	if err != nil {
		return err
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	if err := obs.FinishChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rep, err := obs.CheckChromeEvents(events)
	if err != nil {
		return fmt.Errorf("stitched trace failed validation: %v", err)
	}
	log.Printf("wrote %s from %d dumps (%s)", outPath, len(dumps), rep)
	return nil
}
