package bench

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scale is the problem size the figures render at.
type Scale struct {
	N      int // grid dimension of the 125-pt Poisson problem (paper: 100)
	Reduce int // reduction factor of the SuiteSparse stand-ins (paper: 1)
}

// Reduced is the fast default scale; Paper is the scale of the committed
// results_* records.
var (
	Reduced = Scale{N: 40, Reduce: 4}
	Paper   = Scale{N: 100, Reduce: 1}
)

// Output is one rendered figure: its text record and, for the strong-scaling
// figures, the same series as CSV.
type Output struct {
	Text, CSV string
}

// Figure is one table or figure of the paper's evaluation section: its name,
// the methods it compares (krylov registry names) and how it renders.
type Figure struct {
	Name    string
	Methods []string
	render  func(methods []string, sc Scale) (Output, error)
}

// Render runs the experiment at scale sc.
func (f Figure) Render(sc Scale) (Output, error) { return f.render(f.Methods, sc) }

// scalingMethods are the columns of Figs. 1 and 2: the 1-step baselines and
// the preconditioned and unpreconditioned pipelined s-step methods.
var scalingMethods = []string{"pcg", "pipecg", "pipecg3", "pipecg-oati", "pscg", "pipe-scg", "pipe-pscg"}

// Figures is the paper's evaluation in order, each experiment defined once.
// The committed results_<name>.txt (and .csv) files are these at Paper scale.
var Figures = []Figure{
	{"table1", []string{"pcg", "cg-cg", "groppcg", "pipecg", "pipecg3", "pipecg-oati",
		"scg", "pscg", "scg-s", "pipe-scg", "pipe-pscg"}, tableI},
	{"fig1", scalingMethods, strongScalingOf("poisson125")},
	{"fig2", scalingMethods, strongScalingOf("ecology2")},
	{"table2", []string{"pcg", "pipecg", "pipecg-oati", "hybrid"}, suiteSparse},
	{"fig3", nil, sSensitivity}, // PIPE-PsCG at s = 3, 4, 5
	{"fig4", []string{"pcg", "pipecg", "pipecg-oati", "pscg", "pipe-pscg"}, preconditioners},
	{"fig5", []string{"pcg", "pipecg", "pipecg3", "pipecg-oati", "pscg", "pipe-pscg"}, accuracy},
}

// scalingNodes is the node axis of the strong-scaling figures.
var scalingNodes = []int{1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}

// tableI renders Table I: the analytic cost model at s=3, then each method's
// measured kernel counts and flops per s iterations. The validation solve is
// a 24³ problem at every scale: counts per iteration do not depend on size.
func tableI(methods []string, _ Scale) (Output, error) {
	const s, n = 3, 24
	var b strings.Builder
	fmt.Fprintf(&b, "Table I (analytic) at s=%d — per s iterations\n", s)
	var rows [][]string
	for _, r := range perfmodel.TableI(s) {
		rows = append(rows, []string{string(r.Method), fmt.Sprintf("%g", r.Allreduces),
			r.TimeExpr, fmt.Sprintf("%g", r.Flops), fmt.Sprintf("%g", r.Memory)})
	}
	b.WriteString(FormatTable([]string{"method", "#allr", "time", "flops(xN)", "memory(vectors)"}, rows))

	fmt.Fprintf(&b, "\nMeasured per %d iterations (125-pt Poisson, n=%d, Jacobi):\n", s, n)
	pr := workload.Poisson125(n)
	opt := workload.DefaultOptions(pr)
	opt.S, opt.RelTol, opt.AbsTol = s, 0, 0 // fixed-length runs
	rows = nil
	for _, meth := range methods {
		// Stay within the convergent phase: running past machine accuracy
		// triggers restarts/deflation that would contaminate the counts.
		long, err := countersAfter(pr, meth, opt, 8*s)
		if err != nil {
			return Output{}, err
		}
		short, err := countersAfter(pr, meth, opt, 4*s)
		if err != nil {
			return Output{}, err
		}
		dIter := long.Iterations - short.Iterations
		if dIter <= 0 {
			return Output{}, fmt.Errorf("bench: %s: no iteration delta", meth)
		}
		perS := float64(s) / float64(dIter)
		rows = append(rows, []string{meth,
			fmt.Sprintf("%.2f", float64(long.TotalAllreduces()-short.TotalAllreduces())*perS),
			fmt.Sprintf("%.2f", float64(long.SpMV-short.SpMV)*perS),
			fmt.Sprintf("%.2f", float64(long.PCApply-short.PCApply)*perS),
			fmt.Sprintf("%.1f", (long.Flops-short.Flops)/float64(pr.A.Rows)*perS),
		})
	}
	b.WriteString(FormatTable([]string{"method", "#allr/s-iter", "#spmv/s-iter", "#pc/s-iter", "flops(xN)/s-iter"}, rows))
	b.WriteString("\n(Deltas between a long and a short run isolate steady-state cost from setup;\n" +
		" the s-step rows carry the fused-Gram payload and generic-block LC overhead\n" +
		" documented in DESIGN.md §2 and EXPERIMENTS.md.)\n")
	return Output{Text: b.String()}, nil
}

// countersAfter runs a method for maxIter iterations on the sequential
// engine and returns its kernel counters.
func countersAfter(pr workload.Problem, meth string, opt krylov.Options, maxIter int) (trace.Counters, error) {
	m, err := krylov.MethodByName(meth)
	if err != nil {
		return trace.Counters{}, err
	}
	pc, err := workload.PC(workload.EffectivePC(m, "jacobi"), pr)
	if err != nil {
		return trace.Counters{}, err
	}
	e := engine.NewSeq(pr.A, pc)
	opt.MaxIter = maxIter
	if _, err := m.Solve(e, pr.B, opt); err != nil {
		return trace.Counters{}, fmt.Errorf("bench: %s: %w", meth, err)
	}
	return *e.Counters(), nil
}

// strongScalingOf renders Fig. 1 (poisson125) or Fig. 2 (ecology2): every
// method's speedup against PCG on one node, 1 to 120 nodes.
func strongScalingOf(problem string) func([]string, Scale) (Output, error) {
	return func(methods []string, sc Scale) (Output, error) {
		pr, err := workload.ProblemByName(problem, sc.N, sc.Reduce)
		if err != nil {
			return Output{}, err
		}
		opt := workload.DefaultOptions(pr)
		m := sim.CrayXC40()
		series, err := StrongScaling(pr, methods, "jacobi", m, scalingNodes, opt)
		if err != nil {
			return Output{}, err
		}
		text := fmt.Sprintf("problem %s: N=%d nnz=%d rtol=%.0e pc=jacobi s=%d (machine %s)\n",
			pr.Name, pr.A.Rows, pr.A.NNZ(), opt.RelTol, opt.S, m.Name) +
			FormatScaling("Strong scaling (speedup vs PCG @ 1 node) — paper Fig. 1/2 analogue for "+pr.Name, series)
		return Output{Text: text, CSV: FormatScalingCSV(series)}, nil
	}
}

// suiteSparse renders Table II: the three SuiteSparse stand-ins solved to
// rtol 1e-5, speedups at 120 nodes against PCG on one node.
func suiteSparse(methods []string, sc Scale) (Output, error) {
	const nodes, rtol = 120, 1e-5
	problems := []workload.Problem{workload.Ecology2(sc.Reduce), workload.Thermal2(sc.Reduce), workload.Serena(sc.Reduce)}
	for i := range problems {
		problems[i].RelTol = rtol
	}
	rows, err := TableII(problems, methods, "jacobi", sim.CrayXC40(), nodes)
	if err != nil {
		return Output{}, err
	}
	var cells [][]string
	for _, r := range rows {
		best, bestV := "", 0.0
		for _, meth := range methods {
			if v := r.Speedups[meth]; v > bestV {
				best, bestV = meth, v
			}
		}
		row := []string{r.Matrix, fmt.Sprint(r.N), fmt.Sprint(r.NNZ)}
		for _, meth := range methods {
			cell := fmt.Sprintf("%.2f", r.Speedups[meth])
			if meth == best {
				cell += " *"
			}
			row = append(row, cell)
		}
		cells = append(cells, row)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SuiteSparse stand-ins at %d nodes, rtol %.0e — paper Table II analogue\n", nodes, rtol)
	b.WriteString("(speedups vs PCG @ 1 node; * marks the best method per row)\n")
	b.WriteString(FormatTable(append([]string{"matrix", "N", "nnz"}, methods...), cells))
	for _, r := range rows {
		fmt.Fprintf(&b, "# %s iterations:", r.Matrix)
		for _, meth := range methods {
			fmt.Fprintf(&b, " %s=%d", meth, r.Iters[meth])
		}
		b.WriteByte('\n')
	}
	return Output{Text: b.String()}, nil
}

// sSensitivity renders Fig. 3: PIPE-PsCG at s = 3, 4, 5 up to 140 nodes,
// then the auto-s tuner's model-predicted optimum at every node count (the
// paper's stated future work).
func sSensitivity(_ []string, sc Scale) (Output, error) {
	pr := workload.Poisson125(sc.N)
	nodes := slices.Concat(scalingNodes, []int{130, 140})
	m := sim.CrayXC40()
	series, err := SSensitivity(pr, []int{3, 4, 5}, "jacobi", m, nodes, workload.DefaultOptions(pr))
	if err != nil {
		return Output{}, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "problem %s: N=%d nnz=%d pc=jacobi\n", pr.Name, pr.A.Rows, pr.A.NNZ())
	b.WriteString(FormatScaling("s sensitivity of PIPE-PsCG — paper Fig. 3 analogue", series))
	model := perfmodel.Problem{N: pr.A.Rows, NNZ: pr.A.NNZ(),
		PCFlops: float64(pr.A.Rows), PCBytes: 24 * float64(pr.A.Rows)}
	b.WriteString("\nAuto-s tuner (model-predicted optimal s per scale):\n")
	for _, nd := range nodes {
		p := nd * m.CoresPerNode
		s, t := perfmodel.ChooseS(m, model, p, 8)
		fmt.Fprintf(&b, "  %3d nodes (%4d cores): s=%d (predicted %.3g s/iteration)\n", nd, p, s, t)
	}
	return Output{Text: b.String()}, nil
}

// preconditioners renders Fig. 4: every method under Jacobi, SOR, MG and
// GAMG at 120 nodes, each against PCG with the same PC on one node. The grid
// is capped at 64³: PC setup grows fast with n.
func preconditioners(methods []string, sc Scale) (Output, error) {
	const nodes = 120
	pr := workload.Poisson125(min(sc.N, 64))
	bars, err := PrecondComparison(pr, []string{"jacobi", "sor", "mg", "gamg"}, methods,
		sim.CrayXC40(), nodes, workload.DefaultOptions(pr))
	if err != nil {
		return Output{}, err
	}
	var rows [][]string
	for i := 0; i < len(bars); i += len(methods) { // PC-major, methods in order
		row := []string{bars[i].PC}
		for _, bar := range bars[i : i+len(methods)] {
			row = append(row, fmt.Sprintf("%.2fx (%d it)", bar.Speedup, bar.Iterations))
		}
		rows = append(rows, row)
	}
	text := fmt.Sprintf("problem %s: N=%d nnz=%d at %d nodes\n", pr.Name, pr.A.Rows, pr.A.NNZ(), nodes) +
		"Preconditioner comparison (speedup vs PCG @ 1 node, same PC) — paper Fig. 4 analogue\n" +
		FormatTable(append([]string{"pc"}, methods...), rows)
	return Output{Text: text}, nil
}

// accuracy renders Fig. 5: relative residual against modeled time at 80
// nodes, and the time each method needs to reach rtol·‖b‖.
func accuracy(methods []string, sc Scale) (Output, error) {
	const nodes, rtol = 80, 1e-5
	pr := workload.Poisson125(sc.N)
	opt := workload.DefaultOptions(pr)
	opt.RelTol = rtol
	trs, err := Accuracy(pr, methods, "jacobi", sim.CrayXC40(), nodes, opt)
	if err != nil {
		return Output{}, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "problem %s: N=%d nnz=%d at %d nodes, rtol %.0e\n", pr.Name, pr.A.Rows, pr.A.NNZ(), nodes, rtol)
	b.WriteString(FormatTrajectories("Relative residual vs modeled time — paper Fig. 5 analogue", trs))
	b.WriteString("\nTime to reach rtol·||b|| (smaller is better):\n")
	for _, tr := range trs {
		if t := TimeToThreshold(tr); t >= 0 {
			fmt.Fprintf(&b, "  %-12s %.4g s\n", tr.Method, t)
		} else {
			fmt.Fprintf(&b, "  %-12s (never)\n", tr.Method)
		}
	}
	return Output{Text: b.String()}, nil
}
