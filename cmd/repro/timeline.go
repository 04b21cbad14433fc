package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/workload"
)

// parseTimeline parses repro timeline: export two traced comm solves as a
// Chrome trace-event file, tid = rank. pid 0 runs -method at -latency per
// hop, posted reductions riding as "overlap" events with their measured
// hidden fraction. pid 1 drives PIPE-PsCG below its attainable accuracy, so
// the Gram matrix turns singular and the solver rebuilds its basis while
// restarts still gain (three times per rank at -problem poisson7 -n 24
// -ranks 4, then the divergence guard stops it): the recovery phase.
// -check validates a trace file; -stitch merges the flight dumps of a routed
// solve's hops (solverbench -trace-out, solverouter, solverd) into one trace.
//
//	repro timeline -problem poisson7 -n 24 -ranks 4 -latency 200us -o trace.json
//	repro timeline -check trace.json
//	repro timeline -stitch bench.json,router.json,s0.json,s1.json -trace <id> -o stitched.json
func parseTimeline(args []string, stderr io.Writer) (runner, error) {
	fs, c := newFlags("timeline", false)
	out := fs.String("o", "timeline.json", "output trace file")
	check := fs.String("check", "", "validate an exported trace file and exit")
	stitch := fs.String("stitch", "", "comma-separated flight-dump files to merge into one cross-process trace")
	trace := fs.String("trace", "", "with -stitch: keep only this trace ID")
	if err := c.parse(fs, args, stderr); err != nil {
		return nil, err
	}
	return func(stdout, stderr io.Writer) error {
		switch {
		case *check != "":
			return checkTrace(*check, stdout)
		case *stitch != "":
			return stitchDumps(*stitch, *trace, *out, stderr)
		}
		return timeline(c, *out, stderr)
	}, nil
}

func timeline(c *config, path string, log io.Writer) error {
	pr, opt, err := c.load()
	if err != nil {
		return err
	}
	out, err := c.spmd(comm.NewFabric(c.ranks, c.latency), workload.DefaultTracer, pr, c.methods[0], opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "repro timeline: pid 0: %s converged=%v iters=%d relres=%.2e hidden=%.2f\n",
		c.method, out.Res.Converged, out.Res.Iterations, out.Res.RelRes, obs.MergeSummaries(out.Summaries).HiddenFraction())
	events := obs.AppendChromeEvents(nil, 0, out.Summaries)

	// Breakdown-restart demo: a tolerance below the recurrence's attainable
	// accuracy drives the Gram matrix singular; each breakdown that comes
	// after a 1 % gain rebuilds the basis instead of stopping.
	opt.RelTol = 1e-30
	out, err = c.spmd(comm.NewFabric(c.ranks, c.latency), workload.DefaultTracer, pr, krylov.Method{Name: "pipe-pscg", Solve: krylov.PIPEPSCG}, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "repro timeline: pid 1: breakdown-restart demo brokedown=%v diverged=%v iters=%d recovery spans=%d\n",
		out.Res.BrokeDown, out.Res.Diverged, out.Res.Iterations, obs.MergeSummaries(out.Summaries).Phases[obs.PhaseRecovery].Count)
	events = obs.AppendChromeEvents(events, 1, out.Summaries)
	if err := writeTrace(path, events); err != nil {
		return err
	}
	fmt.Fprintf(log, "repro timeline: wrote %s (%d events, %d ranks × 2 solves)\n", path, len(events), c.ranks)
	return nil
}

func writeTrace(path string, events []obs.ChromeEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.FinishChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: not valid JSON: %v", path, err)
	}
	return nil
}

// checkTrace validates a trace file through obs.CheckChromeEvents: complete
// events, intact span trees, phase coverage and the overlap ledger.
func checkTrace(path string, w io.Writer) error {
	var doc struct {
		TraceEvents []obs.ChromeEvent `json:"traceEvents"`
	}
	if err := readJSON(path, &doc); err != nil {
		return err
	}
	rep, err := obs.CheckChromeEvents(doc.TraceEvents)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	fmt.Fprintf(w, "ok: %s\n", rep)
	return nil
}

// stitchDumps merges flight-recorder dumps into one cross-process Chrome
// trace at outPath and validates the file.
func stitchDumps(list, traceID, outPath string, log io.Writer) error {
	var dumps []obs.FlightDump
	for _, path := range bench.ParseList(list) {
		var d obs.FlightDump
		if err := readJSON(path, &d); err != nil {
			return err
		}
		dumps = append(dumps, d)
	}
	events, err := obs.StitchDumps(dumps, traceID)
	if err != nil {
		return err
	}
	if err := writeTrace(outPath, events); err != nil {
		return err
	}
	fmt.Fprintf(log, "repro timeline: wrote %s from %d dumps\n", outPath, len(dumps))
	return checkTrace(outPath, log)
}
