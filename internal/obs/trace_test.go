package obs

import (
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	g := NewIDGen(42)
	tc := g.NewTrace()
	if !tc.Valid() {
		t.Fatalf("generated context invalid: %+v", tc)
	}
	hdr := tc.Traceparent()
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent %q: want 00-…-01", hdr)
	}
	if len(hdr) != 2+1+32+1+16+1+2 {
		t.Fatalf("traceparent %q: wrong length %d", hdr, len(hdr))
	}
	got, ok := ParseTraceparent(hdr)
	if !ok || got != tc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, tc)
	}
	// Uppercase hex and a future version parse too (W3C forward compat).
	up := "01-" + strings.ToUpper(tc.TraceID.String()) + "-" + tc.SpanID.String() + "-00"
	if got, ok := ParseTraceparent(up); !ok || got.TraceID != tc.TraceID {
		t.Fatalf("forward-compat parse failed on %q", up)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01", // non-hex
		"4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", s)
		}
	}
}

// FuzzParseTraceparent: the header and body field it parses are untrusted,
// so no input may panic it, and whatever it accepts is a valid context whose
// canonical rendering parses back to the same context. `go test` runs the
// committed corpus (testdata/fuzz); `make fuzz` explores beyond it.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceparent(s)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("rejected %q but returned %+v", s, tc)
			}
			return
		}
		if !tc.Valid() {
			t.Fatalf("accepted %q as an invalid context %+v", s, tc)
		}
		if back, ok := ParseTraceparent(tc.Traceparent()); !ok || back != tc {
			t.Fatalf("%q: Traceparent() %q parses to %+v ok=%v, want %+v", s, tc.Traceparent(), back, ok, tc)
		}
	})
}

func TestIDGenDeterministicAndDistinct(t *testing.T) {
	a, b := NewIDGen(7), NewIDGen(7)
	for i := 0; i < 16; i++ {
		ta, tb := a.NewTrace(), b.NewTrace()
		if ta != tb {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, ta, tb)
		}
	}
	// Child spans stay in the trace with fresh span IDs.
	g := NewIDGen(9)
	root := g.NewTrace()
	seen := map[SpanID]bool{root.SpanID: true}
	for i := 0; i < 64; i++ {
		c := g.Child(root)
		if c.TraceID != root.TraceID {
			t.Fatalf("child left the trace: %v", c)
		}
		if seen[c.SpanID] {
			t.Fatalf("span id collision at %d", i)
		}
		seen[c.SpanID] = true
	}
	// Child of an invalid parent falls back to a fresh root.
	if c := g.Child(TraceContext{}); !c.Valid() {
		t.Fatalf("child of invalid parent is invalid: %+v", c)
	}
}

func TestFlightRecorderRingsAndDump(t *testing.T) {
	f := NewFlightRecorder("solverd", "s0", 3, 2)
	for i := 0; i < 5; i++ {
		f.RecordJob(JobRecord{Job: string(rune('a' + i)), TraceID: "t"})
	}
	for i := 0; i < 3; i++ {
		f.RecordEvent(FlightEvent{UnixNS: int64(i), Kind: "k"})
	}
	d := f.Dump()
	if d.Service != "solverd" || d.Shard != "s0" {
		t.Fatalf("dump identity: %+v", d)
	}
	if len(d.Jobs) != 3 || d.Jobs[0].Job != "c" || d.Jobs[2].Job != "e" {
		t.Fatalf("job ring wrong: %+v", d.Jobs)
	}
	if d.DroppedJobs != 2 {
		t.Fatalf("dropped jobs = %d, want 2", d.DroppedJobs)
	}
	if len(d.Events) != 2 || d.Events[0].UnixNS != 1 || d.DroppedEvents != 1 {
		t.Fatalf("event ring wrong: %+v dropped=%d", d.Events, d.DroppedEvents)
	}

	// Nil recorder is a no-op everywhere.
	var nilRec *FlightRecorder
	nilRec.RecordJob(JobRecord{})
	nilRec.RecordEvent(FlightEvent{})
	if nd := nilRec.Dump(); len(nd.Jobs) != 0 || len(nd.Events) != 0 {
		t.Fatalf("nil recorder dump not empty: %+v", nd)
	}
}

// synthSummary builds a rank summary with fixed compute and wait totals via
// a fake-clock tracer — no wall time anywhere.
func synthSummary(rank int, computeNS, waitNS int64) Summary {
	var now int64
	tr := New(rank, WithClock(func() int64 { return now }))
	sp := tr.Begin(PhaseSpMV)
	now += computeNS
	tr.End(sp)
	sp = tr.Begin(PhaseAllreduceWait)
	now += waitNS
	tr.End(sp)
	return tr.Summary()
}

func TestAnalyzeSkewDirections(t *testing.T) {
	// Balanced: every score ~0.
	bal := AnalyzeSkew([]Summary{
		synthSummary(0, 100, 50), synthSummary(1, 100, 50),
		synthSummary(2, 100, 50), synthSummary(3, 100, 50),
	})
	if bal.MaxScore > 1e-9 || bal.Imbalance > 1.0+1e-9 {
		t.Fatalf("balanced solve scored %v", bal)
	}

	// Send-delayed straggler (rank 2): its peers wait, it does not.
	lag := AnalyzeSkew([]Summary{
		synthSummary(0, 100, 400), synthSummary(1, 100, 420),
		synthSummary(2, 100, 10), synthSummary(3, 100, 380),
	})
	if lag.StragglerRank != 2 {
		t.Fatalf("wait-deficit straggler: got rank %d (%+v)", lag.StragglerRank, lag)
	}
	if lag.MaxScore < 0.5 {
		t.Fatalf("straggler score too low: %v", lag.MaxScore)
	}
	for _, r := range lag.Ranks {
		if r.Rank != 2 && r.Score > lag.MaxScore/2 {
			t.Fatalf("victim rank %d scored %v, close to straggler's %v", r.Rank, r.Score, lag.MaxScore)
		}
	}

	// Compute imbalance (rank 1 has 2× work): compute excess drives it.
	heavy := AnalyzeSkew([]Summary{
		synthSummary(0, 100, 80), synthSummary(1, 200, 10),
		synthSummary(2, 100, 80), synthSummary(3, 100, 80),
	})
	if heavy.StragglerRank != 1 || heavy.Ranks[1].ComputeExcess <= 0 {
		t.Fatalf("compute-excess straggler: %+v", heavy)
	}
	if heavy.Imbalance < 1.5 {
		t.Fatalf("imbalance %v, want ~1.6", heavy.Imbalance)
	}

	// Fewer than two ranks: skew is meaningless.
	if one := AnalyzeSkew([]Summary{synthSummary(0, 1, 1)}); one.StragglerRank != -1 {
		t.Fatalf("single-rank report: %+v", one)
	}
}

func TestCheckRejectsBadSpanTrees(t *testing.T) {
	span := func(name, id, parent string, ts float64) ChromeEvent {
		args := map[string]any{"trace_id": "t1", "span_id": id}
		if parent != "" {
			args["parent_id"] = parent
		}
		return ChromeEvent{Name: name, Cat: "span", Ph: "X", TS: ts, Dur: 1, Args: args}
	}
	ok := []ChromeEvent{span("root", "a", "", 0), span("child", "b", "a", 5)}
	if _, err := CheckChromeEvents(ok); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}

	cases := []struct {
		name string
		evs  []ChromeEvent
		want string
	}{
		{"duplicate ids", []ChromeEvent{span("root", "a", "", 0), span("dup", "a", "", 1)}, "duplicate span id"},
		{"orphan parent", []ChromeEvent{span("root", "a", "", 0), span("lost", "b", "zz", 1)}, "orphan"},
		{"child before parent", []ChromeEvent{span("root", "a", "", 10), span("early", "b", "a", 3)}, "before its parent"},
		{"no root", []ChromeEvent{span("x", "a", "b", 1), span("y", "b", "a", 1)}, "no root"},
		{"missing span id", []ChromeEvent{{Name: "s", Cat: "span", Ph: "X", Args: map[string]any{"trace_id": "t"}}}, "missing span_id"},
	}
	for _, tc := range cases {
		_, err := CheckChromeEvents(tc.evs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestStitchDumpsSingleTrace(t *testing.T) {
	// Three participants with synthetic wall clocks: client 1000ns, router
	// 1100ns, daemon solve anchored at 1300ns with a fake-clock rank pair.
	client := FlightDump{Service: "solverbench", Jobs: []JobRecord{{
		TraceID: "t1",
		Spans:   []TraceSpan{{TraceID: "t1", SpanID: "c1", Name: "client_submit", StartUnixNS: 1000, EndUnixNS: 2000}},
	}}}
	router := FlightDump{Service: "solverouter", Jobs: []JobRecord{{
		TraceID: "t1",
		Spans: []TraceSpan{
			{TraceID: "t1", SpanID: "r1", ParentID: "c1", Name: "route", StartUnixNS: 1100, EndUnixNS: 1900},
			{TraceID: "t1", SpanID: "r2", ParentID: "r1", Name: "attempt", StartUnixNS: 1150, EndUnixNS: 1900, Attrs: map[string]string{"attempt": "1"}},
		},
	}}}
	mkRank := func(rank int) Summary {
		var now int64
		tr := New(rank, WithClock(func() int64 { return now }))
		for _, group := range stitchRequiredPhases() {
			sp := tr.Begin(group[0])
			now += 10
			tr.End(sp)
		}
		tr.AddReductionAt(Reduction{PostNS: 0, WaitStartNS: 1, DoneNS: 2, Words: 4})
		return tr.Summary()
	}
	daemon := FlightDump{Service: "solverd", Shard: "s0", Jobs: []JobRecord{{
		Job: "s0-job-1", TraceID: "t1",
		Spans:        []TraceSpan{{TraceID: "t1", SpanID: "d1", ParentID: "r2", Name: "solve", StartUnixNS: 1300, EndUnixNS: 1800}},
		AnchorUnixNS: 1300,
		Ranks:        []Summary{mkRank(0), mkRank(1)},
	}, {
		Job: "s0-job-2", TraceID: "other",
		Spans: []TraceSpan{{TraceID: "other", SpanID: "x1", Name: "solve", StartUnixNS: 500, EndUnixNS: 600}},
	}}, Events: []FlightEvent{{UnixNS: 1250, Kind: "rank_skew", TraceID: "t1"}}}

	evs, err := StitchDumps([]FlightDump{daemon, router, client}, "t1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CheckChromeEvents(evs)
	if err != nil {
		t.Fatalf("stitched trace invalid: %v\n%+v", err, evs)
	}
	if rep.Spans != 4 || rep.Roots != 1 || rep.Marks != 1 {
		t.Fatalf("report %+v: want 4 spans, 1 root, 1 mark", rep)
	}
	// pid order: client 0, router 1, daemon 2 — regardless of input order.
	for _, ev := range evs {
		if ev.Cat != "span" {
			continue
		}
		svc := ev.Args["service"].(string)
		wantPID := map[string]int{"solverbench": 0, "solverouter": 1, "solverd": 2}[svc]
		if ev.PID != wantPID {
			t.Fatalf("span %s from %s on pid %d, want %d", ev.Name, svc, ev.PID, wantPID)
		}
	}
	// The filtered trace excludes the "other" trace's spans.
	for _, ev := range evs {
		if tid, ok := ev.Args["trace_id"].(string); ok && tid != "t1" {
			t.Fatalf("foreign trace leaked: %+v", ev)
		}
	}
	// Rank phase events land at anchor-relative wall positions: anchor 1300,
	// base 1000 → first phase event at 0.3µs.
	found := false
	for _, ev := range evs {
		if ev.Cat == "phase" && ev.TID == 0 && ev.Name == PhaseSpMV.String() {
			if ev.TS != 0.3 {
				t.Fatalf("phase ts %v, want 0.3", ev.TS)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no rank-0 spmv phase event in stitched trace")
	}

	if _, err := StitchDumps([]FlightDump{client}, "missing"); err == nil {
		t.Fatal("filter matching nothing must error")
	}
}
