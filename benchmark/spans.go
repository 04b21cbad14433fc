package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark (or, for fetched job trees, the
// program) recorded: name, start, end, the span that caused it, and the
// operation both belong to. Times are wall-clock Unix nanoseconds so spans
// fetched from a daemon's flight recorder sit on the same axis.
type span struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Op     string `json:"op"` // per-operation id shared by every span of one solve or job
	Name   string `json:"name"`
	Layer  string `json:"layer"` // who recorded it: benchmark, solverd, solverouter
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps spans in memory until the workload ends. A nil *spanLog
// records nothing, so the untraced pass shares the traced pass's code path.
type spanLog struct {
	mu    sync.Mutex
	next  int
	spans []span
}

// open is a started span; end it exactly once.
type open struct {
	log *spanLog
	s   span
}

func (l *spanLog) begin(parent *open, op, name string) *open {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	l.next++
	id := fmt.Sprintf("b%06d", l.next)
	l.mu.Unlock()
	s := span{ID: id, Op: op, Name: name, Layer: "benchmark", Start: time.Now().UnixNano()}
	if parent != nil {
		s.Parent = parent.s.ID
	}
	return &open{log: l, s: s}
}

func (o *open) id() string {
	if o == nil {
		return ""
	}
	return o.s.ID
}

// end closes the span and returns its duration (0 on a nil span).
func (o *open) end() time.Duration {
	if o == nil {
		return 0
	}
	o.s.End = time.Now().UnixNano()
	o.log.add(o.s)
	return o.s.dur()
}

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) all() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover (overlapping children are merged, so
// concurrent children are not subtracted twice).
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[string][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, hi := int64(0), s.Start
		for _, c := range cs {
			lo, end := max(c.Start, hi), min(c.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// checkSpans verifies the span file's contract: unique ids, every parent
// resolvable, every child inside its parent, no span ending before it starts.
func checkSpans(spans []span) error {
	byID := make(map[string]span, len(spans))
	for _, s := range spans {
		if s.ID == "" {
			return fmt.Errorf("span %q has no id", s.Name)
		}
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("duplicate span id %s", s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %s (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == "" {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %s (%s): parent %s not in file", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %s (%s) [%d,%d] outside parent %s (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format;
// chrome://tracing and Perfetto load the file as written.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds since the first span
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// writeChromeTrace writes spans as one Chrome-trace JSON. Layers become
// processes; within a layer every operation gets its own track so concurrent
// jobs do not overlap on one line.
func writeChromeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var t0 int64
	for i, s := range spans {
		if i == 0 || s.Start < t0 {
			t0 = s.Start
		}
	}
	pids := map[string]int{"benchmark": 1, "solverouter": 2, "solverd": 3}
	tids := map[string]int{}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		tid, ok := tids[s.Op]
		if !ok {
			tid = len(tids) + 1
			tids[s.Op] = tid
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			TS: float64(s.Start-t0) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: pids[s.Layer], TID: tid,
			Args: map[string]string{"id": s.ID, "parent": s.Parent, "op": s.Op, "layer": s.Layer},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// readChromeTrace loads a span file back (tests and the self-check use it).
func readChromeTrace(path string) ([]span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	spans := make([]span, 0, len(doc.TraceEvents))
	for _, e := range doc.TraceEvents {
		start := int64(math.Round(e.TS * 1e3))
		spans = append(spans, span{
			ID: e.Args["id"], Parent: e.Args["parent"], Op: e.Args["op"], Layer: e.Args["layer"],
			Name: e.Name, Start: start, End: start + int64(math.Round(e.Dur*1e3)),
		})
	}
	return spans, nil
}
