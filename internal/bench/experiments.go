// Package bench holds the paper's experiments on the recording simulator
// engine (see DESIGN.md §5 for the experiment index): each solver runs once
// on internal/sim, and the event stream is replayed across rank counts to
// produce the strong-scaling, s-sensitivity, preconditioner, accuracy and
// SuiteSparse comparisons behind every table and figure of the evaluation
// section. Figures defines each table and figure once — parameters, method
// list and output format — and cmd/repro renders them. Problems,
// preconditioners and default options come from internal/workload, the
// assembly every other harness shares.
package bench

import (
	"fmt"
	"runtime"

	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Run is one solver execution on the recording simulator engine: the real
// numerics ran once; Eng can now be evaluated at any rank count.
type Run struct {
	Method string
	PC     string
	Result *krylov.Result
	Eng    *sim.Engine
}

// RunSim executes one method on the problem under the named preconditioner
// and returns the recording.
func RunSim(pr workload.Problem, method, pcName string, opt krylov.Options) (*Run, error) {
	m, err := krylov.MethodByName(method)
	if err != nil {
		return nil, err
	}
	pc, err := workload.PC(workload.EffectivePC(m, pcName), pr)
	if err != nil {
		return nil, err
	}
	eng := sim.Record(engine.NewSeq(pr.Operator(), pc), pr.A, pc)
	eng.Decomp = pr.Decomp
	res, err := m.Solve(eng, pr.B, opt)
	if err != nil {
		return nil, fmt.Errorf("bench: %s on %s: %w", method, pr.Name, err)
	}
	return &Run{Method: method, PC: pcName, Result: res, Eng: eng}, nil
}

// ScalingSeries is one method's strong-scaling curve.
type ScalingSeries struct {
	Method     string
	Nodes      []int
	Cores      []int
	TimeSec    []float64 // modeled time to convergence at each scale
	Speedup    []float64 // versus PCG at one node (the paper's y-axis)
	Iterations int
	Converged  bool
}

// nodesToCores converts node counts to core counts for machine m.
func nodesToCores(m sim.Machine, nodes []int) []int {
	cores := make([]int, len(nodes))
	for i, nd := range nodes {
		cores[i] = nd * m.CoresPerNode
	}
	return cores
}

// StrongScaling reproduces Figures 1 and 2: each method runs once, its event
// stream is priced at every node count, and speedups are reported against
// PCG on one node.
func StrongScaling(pr workload.Problem, methods []string, pcName string, m sim.Machine, nodes []int, opt krylov.Options) ([]ScalingSeries, error) {
	cores := nodesToCores(m, nodes)

	base, err := RunSim(pr, "pcg", pcName, opt)
	if err != nil {
		return nil, err
	}
	tBase := base.Eng.Evaluate(m, m.CoresPerNode).Total

	out := make([]ScalingSeries, 0, len(methods))
	for _, meth := range methods {
		run := base
		if meth != "pcg" {
			run, err = RunSim(pr, meth, pcName, opt)
			if err != nil {
				return nil, err
			}
		}
		s := ScalingSeries{Method: meth, Nodes: nodes, Cores: cores,
			Iterations: run.Result.Iterations, Converged: run.Result.Converged}
		for _, p := range cores {
			t := run.Eng.Evaluate(m, p).Total
			s.TimeSec = append(s.TimeSec, t)
			s.Speedup = append(s.Speedup, tBase/t)
		}
		out = append(out, s)
	}
	return out, nil
}

// SSensitivity reproduces Figure 3: PIPE-PsCG at several s values across
// node counts, speedups versus PCG at one node.
func SSensitivity(pr workload.Problem, svals []int, pcName string, m sim.Machine, nodes []int, opt krylov.Options) ([]ScalingSeries, error) {
	cores := nodesToCores(m, nodes)
	base, err := RunSim(pr, "pcg", pcName, opt)
	if err != nil {
		return nil, err
	}
	tBase := base.Eng.Evaluate(m, m.CoresPerNode).Total

	out := make([]ScalingSeries, 0, len(svals))
	for _, s := range svals {
		o := opt
		o.S = s
		run, err := RunSim(pr, "pipe-pscg", pcName, o)
		if err != nil {
			return nil, err
		}
		series := ScalingSeries{Method: fmt.Sprintf("pipe-pscg s=%d", s),
			Nodes: nodes, Cores: cores,
			Iterations: run.Result.Iterations, Converged: run.Result.Converged}
		for _, p := range cores {
			t := run.Eng.Evaluate(m, p).Total
			series.TimeSec = append(series.TimeSec, t)
			series.Speedup = append(series.Speedup, tBase/t)
		}
		out = append(out, series)
	}
	return out, nil
}

// PCBar is one bar of Figure 4.
type PCBar struct {
	PC, Method string
	Speedup    float64 // vs PCG with the same PC at one node
	Iterations int
	Converged  bool
}

// PrecondComparison reproduces Figure 4: each preconditioner × method at a
// fixed node count, speedup versus PCG (same preconditioner) on one node.
func PrecondComparison(pr workload.Problem, pcs, methods []string, m sim.Machine, atNodes int, opt krylov.Options) ([]PCBar, error) {
	var out []PCBar
	p := atNodes * m.CoresPerNode
	for _, pcName := range pcs {
		base, err := RunSim(pr, "pcg", pcName, opt)
		if err != nil {
			return nil, err
		}
		tBase := base.Eng.Evaluate(m, m.CoresPerNode).Total
		for _, meth := range methods {
			run := base
			if meth != "pcg" {
				run, err = RunSim(pr, meth, pcName, opt)
				if err != nil {
					return nil, err
				}
			}
			t := run.Eng.Evaluate(m, p).Total
			out = append(out, PCBar{PC: pcName, Method: meth, Speedup: tBase / t,
				Iterations: run.Result.Iterations, Converged: run.Result.Converged})
		}
	}
	return out, nil
}

// Trajectory is one method's residual-versus-time curve (Figure 5).
type Trajectory struct {
	Method  string
	TimeSec []float64
	RelRes  []float64
	// Threshold is rtol·‖b‖ normalized (= rtol), the paper's horizontal line.
	Threshold float64
}

// Accuracy reproduces Figure 5: relative residual as a function of modeled
// time at a fixed node count.
func Accuracy(pr workload.Problem, methods []string, pcName string, m sim.Machine, atNodes int, opt krylov.Options) ([]Trajectory, error) {
	p := atNodes * m.CoresPerNode
	var out []Trajectory
	for _, meth := range methods {
		run, err := RunSim(pr, meth, pcName, opt)
		if err != nil {
			return nil, err
		}
		tl := run.Eng.Timeline(m, p)
		runtime.GC() // large solver states; keep peak memory bounded
		tr := Trajectory{Method: meth, Threshold: opt.RelTol}
		for _, h := range run.Result.History {
			if h.ReduceIndex < 1 || h.ReduceIndex > len(tl) {
				continue
			}
			tr.TimeSec = append(tr.TimeSec, tl[h.ReduceIndex-1])
			tr.RelRes = append(tr.RelRes, h.RelRes)
		}
		out = append(out, tr)
	}
	return out, nil
}

// TableIIRow is one matrix row of Table II.
type TableIIRow struct {
	Matrix   string
	N, NNZ   int
	Speedups map[string]float64 // method → speedup vs PCG at one node
	Iters    map[string]int
}

// TableII reproduces the SuiteSparse comparison at a fixed node count.
func TableII(problems []workload.Problem, methods []string, pcName string, m sim.Machine, atNodes int) ([]TableIIRow, error) {
	p := atNodes * m.CoresPerNode
	var rows []TableIIRow
	for _, pr := range problems {
		opt := workload.DefaultOptions(pr)
		base, err := RunSim(pr, "pcg", pcName, opt)
		if err != nil {
			return nil, err
		}
		tBase := base.Eng.Evaluate(m, m.CoresPerNode).Total
		row := TableIIRow{Matrix: pr.Name, N: pr.A.Rows, NNZ: pr.A.NNZ(),
			Speedups: map[string]float64{}, Iters: map[string]int{}}
		for _, meth := range methods {
			run := base
			if meth != "pcg" {
				run, err = RunSim(pr, meth, pcName, opt)
				if err != nil {
					return nil, err
				}
			}
			row.Speedups[meth] = tBase / run.Eng.Evaluate(m, p).Total
			row.Iters[meth] = run.Result.Iterations
		}
		rows = append(rows, row)
	}
	return rows, nil
}
