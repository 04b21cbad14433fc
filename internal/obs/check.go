package obs

// Trace validation shared by `repro timeline -check` and the trace-smoke
// test. Two trace shapes exist:
//
//   - legacy single-process timelines (repro timeline's default mode): only
//     "phase"/"overlap" events, with every core phase required on every
//     rank track — the contract frozen in PR 5;
//   - stitched cross-process traces (StitchDumps): "span" events carry the
//     distributed span tree, "phase"/"overlap" events carry the per-rank
//     solve timeline of whichever daemon ran the solve, and "mark" events
//     carry flight-recorder moments. Span IDs must be unique, every parent
//     reference must resolve (no orphans), and a child span may not start
//     before its parent.
//
// A stitched trace cannot demand the full core-phase set: a normal
// converged solve emits no recovery spans and an s=1 method no gram spans.
// The reduced set below is what EVERY distributed solve emits on every
// rank, regardless of method.

import (
	"fmt"
	"sort"
	"strings"
)

// stitchRequiredPhases is the per-rank phase floor for stitched traces:
// each inner group is satisfied by ANY of its phases. Monomial-basis s-step
// methods fuse their dot products into the gram phase and may never touch
// local_dots, so the dot-product group accepts either.
func stitchRequiredPhases() [][]Phase {
	return [][]Phase{
		{PhaseSpMV},
		{PhaseLocalDots, PhaseGram},
		{PhaseRecurrenceLC},
		{PhaseAllreduceWait},
	}
}

// CheckReport summarizes a validated trace.
type CheckReport struct {
	Events     int // total events
	Spans      int // cat "span"
	Roots      int // spans with no parent
	Phases     int // cat "phase"
	Reductions int // cat "overlap"
	Marks      int // cat "mark" (flight-recorder moments)
	Ranks      int // distinct rank tracks carrying phase events
}

func (r CheckReport) String() string {
	if r.Spans > 0 {
		return fmt.Sprintf("%d events: %d spans (%d roots), %d phase events on %d rank tracks, %d reductions, %d marks",
			r.Events, r.Spans, r.Roots, r.Phases, r.Ranks, r.Reductions, r.Marks)
	}
	return fmt.Sprintf("%d events, %d ranks, every core phase covered on every rank, %d reductions",
		r.Events, r.Ranks, r.Reductions)
}

type spanInfo struct {
	index  int
	ts     float64
	parent string
	trace  string
}

// CheckChromeEvents validates a parsed Chrome trace. It enforces the
// event-shape invariants on everything, the legacy per-rank core-phase
// contract on span-free traces, and the span-tree invariants (unique span
// IDs, resolvable parents, parent-before-child start order) plus the
// reduced per-track phase floor on stitched traces.
func CheckChromeEvents(events []ChromeEvent) (CheckReport, error) {
	var rep CheckReport
	rep.Events = len(events)
	if len(events) == 0 {
		return rep, fmt.Errorf("empty trace")
	}

	type track struct{ pid, tid int }
	phasesByTrack := map[track]map[string]bool{}
	legacyByRank := map[int]map[string]bool{}
	spans := map[string]spanInfo{}
	for i, ev := range events {
		if ev.Ph != "X" {
			return rep, fmt.Errorf("event %d (%s): ph=%q, want complete event \"X\"", i, ev.Name, ev.Ph)
		}
		if ev.TS < 0 || ev.Dur < 0 {
			return rep, fmt.Errorf("event %d (%s): negative ts/dur (%v/%v)", i, ev.Name, ev.TS, ev.Dur)
		}
		switch ev.Cat {
		case "phase":
			rep.Phases++
			tk := track{ev.PID, ev.TID}
			if phasesByTrack[tk] == nil {
				phasesByTrack[tk] = map[string]bool{}
			}
			phasesByTrack[tk][ev.Name] = true
			if legacyByRank[ev.TID] == nil {
				legacyByRank[ev.TID] = map[string]bool{}
			}
			legacyByRank[ev.TID][ev.Name] = true
		case "overlap":
			rep.Reductions++
		case "mark":
			rep.Marks++
		case "span":
			rep.Spans++
			id, _ := ev.Args["span_id"].(string)
			if id == "" {
				return rep, fmt.Errorf("span %d (%s): missing span_id arg", i, ev.Name)
			}
			if prev, dup := spans[id]; dup {
				return rep, fmt.Errorf("span %d (%s): duplicate span id %s (first used by event %d)", i, ev.Name, id, prev.index)
			}
			parent, _ := ev.Args["parent_id"].(string)
			trace, _ := ev.Args["trace_id"].(string)
			if trace == "" {
				return rep, fmt.Errorf("span %d (%s): missing trace_id arg", i, ev.Name)
			}
			spans[id] = spanInfo{index: i, ts: ev.TS, parent: parent, trace: trace}
			if parent == "" {
				rep.Roots++
			}
		default:
			return rep, fmt.Errorf("event %d (%s): unknown category %q", i, ev.Name, ev.Cat)
		}
	}
	rep.Ranks = len(legacyByRank)

	if rep.Spans > 0 {
		// Stitched trace: span-tree invariants.
		for id, s := range spans {
			if s.parent == "" {
				continue
			}
			p, ok := spans[s.parent]
			if !ok {
				return rep, fmt.Errorf("span %s (event %d): orphan — parent %s not in trace", id, s.index, s.parent)
			}
			if p.trace != s.trace {
				return rep, fmt.Errorf("span %s (event %d): parent %s belongs to trace %s, child to %s", id, s.index, s.parent, p.trace, s.trace)
			}
			if s.ts < p.ts {
				return rep, fmt.Errorf("span %s (event %d): starts at %v before its parent %s at %v", id, s.index, s.ts, s.parent, p.ts)
			}
		}
		if rep.Roots == 0 {
			return rep, fmt.Errorf("no root span (every span has a parent)")
		}
		var missing []string
		for tk, got := range phasesByTrack {
			for _, group := range stitchRequiredPhases() {
				sat := false
				names := make([]string, len(group))
				for i, p := range group {
					names[i] = p.String()
					sat = sat || got[p.String()]
				}
				if !sat {
					missing = append(missing, fmt.Sprintf("pid %d rank %d: %s", tk.pid, tk.tid, strings.Join(names, "|")))
				}
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			return rep, fmt.Errorf("rank tracks missing required phases: %v", missing)
		}
		if rep.Phases > 0 && rep.Reductions == 0 {
			return rep, fmt.Errorf("phase events present but no reduction events in the overlap ledger")
		}
		return rep, nil
	}

	// Legacy single-process timeline: the PR 5 contract, unchanged — every
	// rank (tid, merged across pids) must cover every core phase, and the
	// overlap ledger must have ridden along.
	var missing []string
	for rank, got := range legacyByRank {
		for _, p := range CorePhases() {
			if !got[p.String()] {
				missing = append(missing, fmt.Sprintf("rank %d: %s", rank, p))
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return rep, fmt.Errorf("phases with no spans: %v", missing)
	}
	if rep.Reductions == 0 {
		return rep, fmt.Errorf("no reduction events in the overlap ledger")
	}
	return rep, nil
}
