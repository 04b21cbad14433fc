package obs

// Stitching: turn the flight-recorder dumps of every participant in a
// request (bench client, router, daemons) into ONE Chrome trace on a shared
// wall-clock axis — pid = hop, tid = rank. Span events carry the
// distributed tree (trace/span/parent IDs in args, so `repro timeline -check`
// can validate linkage); the daemon that ran the solve contributes its
// per-rank phase timeline, shifted from tracer-relative nanoseconds onto
// the wall axis via the anchor captured when the tracers were created.

import (
	"fmt"
	"sort"
)

// serviceHop orders participants into pids: client first, router second,
// daemons after, unknown services last. Ties break on shard then service
// name so the pid assignment is deterministic.
func serviceHop(service string) int {
	switch service {
	case "solverbench", "bench", "client":
		return 0
	case "solverouter", "router":
		return 1
	case "solverd":
		return 2
	default:
		return 3
	}
}

// StitchDumps merges flight dumps into one Chrome trace-event list. When
// traceID is non-empty only that trace's job records and events are kept —
// the single-request view; otherwise everything in the dumps is stitched.
// Each dump becomes one pid (hop order: client, router, daemons by shard
// name); spans and flight marks ride on tid 0, per-rank phase events on
// tid = rank. Returns an error when the filter matches nothing or the
// dumps contain no spans at all.
func StitchDumps(dumps []FlightDump, traceID string) ([]ChromeEvent, error) {
	ordered := append([]FlightDump(nil), dumps...)
	sort.SliceStable(ordered, func(i, j int) bool {
		hi, hj := serviceHop(ordered[i].Service), serviceHop(ordered[j].Service)
		if hi != hj {
			return hi < hj
		}
		if ordered[i].Shard != ordered[j].Shard {
			return ordered[i].Shard < ordered[j].Shard
		}
		return ordered[i].Service < ordered[j].Service
	})

	keepJob := func(jr JobRecord) bool { return traceID == "" || jr.TraceID == traceID }
	keepEvent := func(ev FlightEvent) bool { return traceID == "" || ev.TraceID == traceID }

	// First pass: the earliest span start across all participants anchors
	// ts=0 so the stitched axis starts at the client submit.
	var base int64
	spanCount := 0
	for _, d := range ordered {
		for _, jr := range d.Jobs {
			if !keepJob(jr) {
				continue
			}
			for _, sp := range jr.Spans {
				if spanCount == 0 || sp.StartUnixNS < base {
					base = sp.StartUnixNS
				}
				spanCount++
			}
		}
	}
	if spanCount == 0 {
		if traceID != "" {
			return nil, fmt.Errorf("no spans for trace %s in %d dumps", traceID, len(dumps))
		}
		return nil, fmt.Errorf("no spans in %d dumps", len(dumps))
	}

	var events []ChromeEvent
	for pid, d := range ordered {
		for _, jr := range d.Jobs {
			if !keepJob(jr) {
				continue
			}
			for _, sp := range jr.Spans {
				args := map[string]any{
					"trace_id": sp.TraceID,
					"span_id":  sp.SpanID,
					"service":  d.Service,
				}
				if sp.ParentID != "" {
					args["parent_id"] = sp.ParentID
				}
				if d.Shard != "" {
					args["shard"] = d.Shard
				}
				for k, v := range sp.Attrs {
					args[k] = v
				}
				dur := float64(sp.EndUnixNS-sp.StartUnixNS) / 1e3
				if dur < 0 {
					dur = 0
				}
				events = append(events, ChromeEvent{
					Name: sp.Name, Cat: "span", Ph: "X",
					TS: float64(sp.StartUnixNS-base) / 1e3, Dur: dur,
					PID: pid, TID: 0, Args: args,
				})
			}
			// The solving daemon's per-rank timeline: tracer clocks are
			// relative to their construction instant, recorded as the
			// anchor, so wall = anchor + tracer-relative.
			if jr.AnchorUnixNS == 0 {
				continue
			}
			shift := jr.AnchorUnixNS - base
			// Clamp at the axis origin: cross-machine clock skew may place a
			// rank event fractionally before the client's submit instant, and
			// the checker rejects negative timestamps.
			at := func(ns int64) float64 {
				if ns < 0 {
					ns = 0
				}
				return float64(ns) / 1e3
			}
			for _, s := range jr.Ranks {
				for _, ev := range s.Events {
					events = append(events, ChromeEvent{
						Name: ev.Phase.String(), Cat: "phase", Ph: "X",
						TS:  at(shift + ev.StartNS),
						Dur: float64(ev.EndNS-ev.StartNS) / 1e3,
						PID: pid, TID: s.Rank,
						Args: map[string]any{"trace_id": jr.TraceID},
					})
				}
				for i, r := range s.Reductions {
					events = append(events, ChromeEvent{
						Name: "reduction", Cat: "overlap", Ph: "X",
						TS:  at(shift + r.PostNS),
						Dur: float64(r.IntervalNS()) / 1e3,
						PID: pid, TID: s.Rank,
						Args: map[string]any{
							"trace_id":        jr.TraceID,
							"index":           i,
							"words":           r.Words,
							"blocking":        r.Blocking,
							"wait_us":         float64(r.WaitNS()) / 1e3,
							"hidden_fraction": r.HiddenFraction(),
						},
					})
				}
			}
		}
		for _, fe := range d.Events {
			if !keepEvent(fe) {
				continue
			}
			args := map[string]any{"service": d.Service}
			if fe.TraceID != "" {
				args["trace_id"] = fe.TraceID
			}
			for k, v := range fe.Attrs {
				args[k] = v
			}
			ts := float64(fe.UnixNS-base) / 1e3
			if ts < 0 {
				ts = 0
			}
			events = append(events, ChromeEvent{
				Name: fe.Kind, Cat: "mark", Ph: "X",
				TS: ts, Dur: 0, PID: pid, TID: 0, Args: args,
			})
		}
	}
	return events, nil
}
