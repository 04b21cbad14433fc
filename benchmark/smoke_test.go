package main

import (
	"io"
	"path/filepath"
	"testing"
)

// TestSmoke runs all six workloads at 2 % scale through the full untraced
// and traced path, gate included, and checks the result lines against
// names.go in both directions and the span files against their contract.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w.Name, seed: 1, seconds: runSeconds * 0.02, scale: 0.02, traced: traced, outDir: out}
			res, err := runOne(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", w.Name, traced, res.Attempted, res.Failed)
			}
			defs := endToEndDefs
			if traced {
				defs = perLayerDefs
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d defined", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s not emitted", w.Name, traced, d.Name)
				}
				if m.Unit != d.Unit {
					t.Errorf("%s: unit %q emitted, %q defined", d.Name, m.Unit, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s on %s is %g; end-to-end metrics are never 0", d.Name, w.Name, m.Value)
				}
			}
			if !traced {
				continue
			}
			spans, err := readChromeTrace(filepath.Join(out, "spans_"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := checkSpans(spans); err != nil {
				t.Errorf("%s: span file: %v", w.Name, err)
			}
			names := map[string]bool{}
			for _, s := range spans {
				names[s.Name] = true
			}
			want := []string{"workload", "setup", "warmup", "round"}
			if _, service := serviceWorkloads[w.Name]; service {
				want = append(want, "daemon_start", "client_submit", "job", "queue_wait", "solve")
			} else {
				want = append(want, "problem_build", "solve")
			}
			if w.Name == "cluster_mixed" {
				want = append(want, "route", "attempt")
			}
			for _, n := range want {
				if !names[n] {
					t.Errorf("%s: span file has no %q span", w.Name, n)
				}
			}
		}
	}
}
