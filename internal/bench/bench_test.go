package bench

import (
	"strings"
	"testing"

	"repro/internal/krylov"
	"repro/internal/sim"
	"repro/internal/workload"
)

// smallPoisson is a fast stand-in problem for harness tests.
func smallPoisson(t *testing.T) workload.Problem {
	t.Helper()
	pr := workload.Poisson7(10)
	pr.RelTol = 1e-6
	return pr
}

// The catalogue checks below stay in this package under the names the test
// floor knows them by; they exercise internal/workload, which bench runs on.
func TestProblemBuilders(t *testing.T) {
	pr := workload.Poisson125(6)
	if pr.A.Rows != 216 || pr.Grid == nil {
		t.Fatal("poisson125 builder broken")
	}
	e := workload.Ecology2(64)
	if e.RelTol != 1e-2 {
		t.Fatal("ecology2 must default to rtol 1e-2 (paper Fig. 2)")
	}
	if workload.Thermal2(64).A.Rows == 0 || workload.Serena(16).A.Rows == 0 {
		t.Fatal("synth builders broken")
	}
}

func TestMakePC(t *testing.T) {
	pr := smallPoisson(t)
	for _, name := range []string{"none", "jacobi", "sor", "bjacobi", "chebyshev", "mg", "gamg"} {
		if _, err := workload.PC(name, pr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := workload.PC("mg", workload.Ecology2(128)); err == nil {
		t.Fatal("mg on unstructured problem must error")
	}
	if _, err := workload.PC("bogus", pr); err == nil {
		t.Fatal("unknown PC must error")
	}
}

func TestStrongScalingShape(t *testing.T) {
	pr := smallPoisson(t)
	m := sim.CrayXC40()
	nodes := []int{1, 10, 40, 120}
	series, err := StrongScaling(pr, []string{"pcg", "pipecg", "pipe-pscg"}, "jacobi", m, nodes, workload.DefaultOptions(pr))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series count %d", len(series))
	}
	byName := map[string]ScalingSeries{}
	for _, s := range series {
		if !s.Converged {
			t.Fatalf("%s did not converge", s.Method)
		}
		byName[s.Method] = s
	}
	// PCG speedup at 1 node must be 1 by construction.
	if sp := byName["pcg"].Speedup[0]; sp < 0.999 || sp > 1.001 {
		t.Fatalf("PCG self-speedup at 1 node = %g", sp)
	}
	// At the largest scale the pipelined s-step method must beat PCG.
	last := len(nodes) - 1
	if byName["pipe-pscg"].Speedup[last] <= byName["pcg"].Speedup[last] {
		t.Fatalf("pipe-pscg (%.2f) should beat pcg (%.2f) at %d nodes",
			byName["pipe-pscg"].Speedup[last], byName["pcg"].Speedup[last], nodes[last])
	}
}

func TestSSensitivityRuns(t *testing.T) {
	pr := smallPoisson(t)
	m := sim.CrayXC40()
	series, err := SSensitivity(pr, []int{2, 3}, "jacobi", m, []int{1, 80}, workload.DefaultOptions(pr))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || !strings.Contains(series[0].Method, "s=2") {
		t.Fatalf("bad series: %+v", series)
	}
}

func TestPrecondComparisonRuns(t *testing.T) {
	pr := smallPoisson(t)
	m := sim.CrayXC40()
	bars, err := PrecondComparison(pr, []string{"jacobi", "sor"}, []string{"pcg", "pipe-pscg"}, m, 120, workload.DefaultOptions(pr))
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != 4 {
		t.Fatalf("bar count %d", len(bars))
	}
	for _, b := range bars {
		if !b.Converged || b.Speedup <= 0 {
			t.Fatalf("bad bar %+v", b)
		}
	}
}

func TestAccuracyTrajectories(t *testing.T) {
	pr := smallPoisson(t)
	m := sim.CrayXC40()
	trs, err := Accuracy(pr, []string{"pcg", "pipe-pscg"}, "jacobi", m, 80, workload.DefaultOptions(pr))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		if len(tr.TimeSec) == 0 || len(tr.TimeSec) != len(tr.RelRes) {
			t.Fatalf("%s: empty or ragged trajectory", tr.Method)
		}
		// Times must be strictly increasing.
		for i := 1; i < len(tr.TimeSec); i++ {
			if tr.TimeSec[i] <= tr.TimeSec[i-1] {
				t.Fatalf("%s: time not increasing at %d", tr.Method, i)
			}
		}
		// Each converged method must cross the threshold.
		if tt := TimeToThreshold(tr); tt < 0 {
			t.Fatalf("%s never crossed the threshold", tr.Method)
		}
	}
}

func TestTableIIRuns(t *testing.T) {
	pr := smallPoisson(t)
	rows, err := TableII([]workload.Problem{pr}, []string{"pcg", "pipecg-oati", "hybrid"}, "jacobi", sim.CrayXC40(), 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatal("row count")
	}
	r := rows[0]
	if r.Speedups["hybrid"] <= 0 || r.Iters["pcg"] <= 0 {
		t.Fatalf("bad row %+v", r)
	}
}

func TestFormatters(t *testing.T) {
	tbl := FormatTable([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(tbl, "333") || !strings.Contains(tbl, "--") {
		t.Fatalf("table:\n%s", tbl)
	}
	s := ScalingSeries{Method: "pcg", Nodes: []int{1, 2}, Cores: []int{24, 48},
		TimeSec: []float64{1, 0.5}, Speedup: []float64{1, 2}, Iterations: 10, Converged: true}
	out := FormatScaling("fig", []ScalingSeries{s})
	if !strings.Contains(out, "2.00x") {
		t.Fatalf("scaling:\n%s", out)
	}
	if csv := FormatScalingCSV([]ScalingSeries{s}); !strings.Contains(csv, "nodes,cores,pcg") {
		t.Fatalf("csv:\n%s", csv)
	}
	tr := Trajectory{Method: "pcg", TimeSec: []float64{1, 2}, RelRes: []float64{0.5, 0.01}, Threshold: 0.1}
	txt := FormatTrajectories("fig5", []Trajectory{tr})
	if !strings.Contains(txt, "pcg:") {
		t.Fatalf("trajectories:\n%s", txt)
	}
	if TimeToThreshold(tr) != 2 {
		t.Fatal("TimeToThreshold wrong")
	}
	if TimeToThreshold(Trajectory{Threshold: 0.1, RelRes: []float64{1}, TimeSec: []float64{1}}) != -1 {
		t.Fatal("TimeToThreshold should report never")
	}
}

func TestRunSimUnpreconditionedIgnoresPC(t *testing.T) {
	pr := smallPoisson(t)
	run, err := RunSim(pr, "pipe-scg", "jacobi", workload.DefaultOptions(pr))
	if err != nil {
		t.Fatal(err)
	}
	if run.Eng.Counters().PCApply != 0 {
		t.Fatal("unpreconditioned method applied a PC")
	}
}

func TestDefaultOptions(t *testing.T) {
	pr := workload.Ecology2(128)
	opt := workload.DefaultOptions(pr)
	if opt.RelTol != 1e-2 || opt.S != 3 {
		t.Fatalf("bad defaults %+v", opt)
	}
	_ = krylov.Defaults()
}
