package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: "root", Name: "workload", Start: 0, End: 100},
		{ID: "a", Parent: "root", Name: "setup", Start: 10, End: 40},
		{ID: "b", Parent: "root", Name: "round", Start: 30, End: 60}, // overlaps a: 30..40 counted once
		{ID: "c", Parent: "b", Name: "solve", Start: 35, End: 55},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"root": 50, "a": 30, "b": 10, "c": 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of %s = %d, want %d", id, self[id], w)
		}
	}
}

func TestCheckSpans(t *testing.T) {
	ok := []span{
		{ID: "r", Name: "workload", Start: 0, End: 100},
		{ID: "k", Parent: "r", Name: "round", Start: 5, End: 95},
	}
	if err := checkSpans(ok); err != nil {
		t.Fatalf("well-formed spans rejected: %v", err)
	}
	bad := map[string][]span{
		"parent":      {{ID: "k", Parent: "gone", Name: "round", Start: 0, End: 1}},
		"outside":     {ok[0], {ID: "k", Parent: "r", Name: "round", Start: 5, End: 101}},
		"duplicate":   {ok[0], ok[0]},
		"ends before": {{ID: "r", Name: "workload", Start: 9, End: 3}},
		"has no id":   {{Name: "workload", Start: 0, End: 1}},
	}
	for what, spans := range bad {
		err := checkSpans(spans)
		if err == nil || !strings.Contains(err.Error(), what) {
			t.Errorf("%s: got %v", what, err)
		}
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	spans := []span{
		{ID: "r", Op: "workload", Name: "workload", Layer: "benchmark", Start: 1_700_000_000_000_000_123, End: 1_700_000_012_345_678_901},
		{ID: "k", Parent: "r", Op: "job-1", Name: "client_submit", Layer: "benchmark", Start: 1_700_000_001_000_000_001, End: 1_700_000_001_020_000_003},
		{ID: "j", Parent: "k", Op: "job-1", Name: "job", Layer: "solverd", Start: 1_700_000_001_000_100_000, End: 1_700_000_001_019_000_000},
	}
	path := filepath.Join(t.TempDir(), "sub", "spans.json")
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	back, err := readChromeTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(spans) {
		t.Fatalf("read %d spans, wrote %d", len(back), len(spans))
	}
	if err := checkSpans(back); err != nil {
		t.Errorf("round-tripped file fails its own check: %v", err)
	}
	for i, s := range back {
		if s.ID != spans[i].ID || s.Parent != spans[i].Parent || s.Name != spans[i].Name || s.dur() != spans[i].dur() {
			t.Errorf("span %d changed: %+v, wrote %+v", i, s, spans[i])
		}
	}
}
