package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// solveFlags are repro solve's own flags: the runtime, the node counts sim
// prices, and the comm runtime's fault scenario and receive deadline.
type solveFlags struct {
	runtime  string
	nodeList []int
	comm.FaultConfig
	noChecksum bool
	timeout    time.Duration
	retries    int
	// faulty: a fault flag was given, so the comm fabric carries the
	// injector, checksums and the receive deadline. Else it is the plain one.
	faulty bool
}

var runtimes = []string{"seq", "comm", "sim"}

// parseSolve parses repro solve: solve A·x = b for a built-in problem or a
// MatrixMarket file on the seq (reference), comm (goroutine ranks, real
// non-blocking collectives) or sim (cluster model priced at -nodes)
// runtime. Any fault flag puts a seeded fault injector with ack/resend and
// checksums on the comm fabric. The comm report adds the TRUE residual
// ‖b − A·x‖/‖b‖ of the gathered solution, all ranks' recovery counters,
// the injector's tally and the leak check.
//
//	repro solve -matrix m.mtx -method pipecg -runtime comm -ranks 8
//	repro solve -runtime comm -problem poisson7 -n 12 -ranks 7 -method ladder -drop 0.05 -straggler 2 -jitter 2ms
//	repro solve -runtime comm -problem ecology2 -scale 24 -rtol 1e-5 -method pcg -corrupt 0.01 -nochecksum
func parseSolve(args []string, stderr io.Writer) (runner, error) {
	fs, c := newFlags("solve", false)
	f := &solveFlags{}
	fs.StringVar(&f.runtime, "runtime", runtimes[0], "runtime: "+strings.Join(runtimes, ", "))
	nodes := fs.String("nodes", "1,40,80,120", "node counts to price for -runtime sim")
	faults := flag.NewFlagSet("", flag.ContinueOnError)
	faults.Uint64Var(&f.Seed, "seed", 1, "fault injector seed")
	faults.Float64Var(&f.DropRate, "drop", 0, "message drop probability")
	faults.Float64Var(&f.DupRate, "dup", 0, "message duplication probability")
	faults.Float64Var(&f.DelayRate, "delayrate", 0, "message delay probability")
	faults.DurationVar(&f.DelayMax, "delaymax", time.Millisecond, "maximum injected delay")
	faults.Float64Var(&f.CorruptRate, "corrupt", 0, "payload bit-flip probability")
	faults.BoolVar(&f.noChecksum, "nochecksum", false, "disable payload checksums (corruption reaches the numerics)")
	faults.IntVar(&f.StragglerRank, "straggler", -1, "rank whose sends jitter (-1 = none)")
	faults.DurationVar(&f.StragglerJitter, "jitter", time.Millisecond, "maximum straggler jitter")
	faults.DurationVar(&f.timeout, "timeout", 20*time.Millisecond, "recv deadline (0 = fabric default: block forever, or 50ms×100 when drops are configured)")
	faults.IntVar(&f.retries, "retries", 200, "recv retries before declaring deadlock")
	faults.VisitAll(func(fl *flag.Flag) { fs.Var(fl.Value, fl.Name, "comm fault flag: "+fl.Usage) })
	if err := c.parse(fs, args, stderr); err != nil {
		return nil, err
	}
	fs.Visit(func(fl *flag.Flag) { f.faulty = f.faulty || faults.Lookup(fl.Name) != nil })
	if !slices.Contains(runtimes, f.runtime) {
		return nil, bad("-runtime %q: want %s", f.runtime, strings.Join(runtimes, ", "))
	}
	if f.faulty && f.runtime != "comm" {
		return nil, bad("fault flags apply to -runtime comm, not %s", f.runtime)
	}
	var err error
	if f.nodeList, err = bench.ParseInts(*nodes); err != nil || slices.Min(f.nodeList) < 1 {
		return nil, bad("-nodes %q: want a list of node counts, each at least 1", *nodes)
	}
	return func(stdout, _ io.Writer) error { return solve(c, f, stdout) }, nil
}

func solve(c *config, f *solveFlags, w io.Writer) error {
	pr, opt, err := c.load()
	if err != nil {
		return err
	}
	meth := c.methods[0]
	fmt.Fprintf(w, "%s: N=%d nnz=%d method=%s pc=%s s=%d rtol=%.0e norm=%s runtime=%s\n",
		pr.Name, pr.A.Rows, pr.A.NNZ(), c.method, c.pc, c.s, opt.RelTol, opt.Norm, f.runtime)

	switch f.runtime {
	case "seq":
		pcInst, err := workload.PC(workload.EffectivePC(meth, c.pc), pr)
		if err != nil {
			return err
		}
		e := engine.NewSeq(pr.Operator(), pcInst)
		start := time.Now()
		res, err := meth.Solve(e, pr.B, opt)
		if err != nil {
			return err
		}
		report(w, res)
		fmt.Fprintf(w, "wall time: %v\ncounters: %s\n", time.Since(start).Round(time.Millisecond), e.Counters())

	case "sim":
		run, err := bench.RunSim(pr, c.method, c.pc, opt)
		if err != nil {
			return err
		}
		report(w, run.Result)
		fmt.Fprintf(w, "counters: %s\nmodeled time to solution:\n", run.Eng.Counters())
		m := sim.CrayXC40()
		for _, nd := range f.nodeList {
			b := run.Eng.Evaluate(m, nd*m.CoresPerNode)
			fmt.Fprintf(w, "  %3d nodes: total %.4gs  compute %.3gs  halo %.3gs  reduce exposed %.3gs hidden %.3gs\n",
				nd, b.Total, b.Compute, b.Halo, b.ReduceExposed, b.ReduceHidden)
		}

	case "comm":
		fab := comm.NewFabric(c.ranks, c.latency)
		if f.faulty {
			fc := f.FaultConfig
			fc.Checksum = !f.noChecksum
			fab = fab.WithFault(&fc)
			if f.timeout > 0 { // 0: the fabric's default, see -timeout
				fab = fab.WithRecvTimeout(f.timeout, f.retries)
			}
			fmt.Fprintf(w, "faults: seed=%d drop=%.3g dup=%.3g delay=%.3g/%v corrupt=%.3g checksum=%v straggler=%d/%v timeout=%v×%d\n",
				f.Seed, f.DropRate, f.DupRate, f.DelayRate, f.DelayMax, f.CorruptRate, !f.noChecksum,
				f.StragglerRank, f.StragglerJitter, f.timeout, f.retries)
		}
		out, err := c.spmd(fab, nil, pr, meth, opt)
		if out == nil {
			return fmt.Errorf("runtime comm supports %v", err)
		}
		if res := out.Ranks[0]; res != nil {
			report(w, res)
		}
		if out.Res != nil {
			fmt.Fprintf(w, "true residual: %.3e\n", workload.TrueResidual(pr.A, pr.B, out.Res.X))
		}
		fmt.Fprintf(w, "wall time: %v over %d ranks (hop latency %v)\nrank-0 counters: %s\n",
			out.Elapsed.Round(time.Millisecond), c.ranks, c.latency, &out.Counters[0])

		// Recovery statistics: solver-level events summed across ranks, the
		// injector's tally, and the comm layer's own ledger.
		var sum trace.Counters
		for r := range out.Counters {
			sum.Add(&out.Counters[r])
		}
		fmt.Fprintf(w, "solver recoveries: events=%d replacements=%d stepdowns=%d\ncomm faults: %s\nrecovery events (trace.Counters, all ranks): %d\n",
			sum.Recoveries, sum.ResidualReplacements, sum.LadderStepdowns, fab.TotalStats(), sum.RecoveryEvents())
		verdict := "clean (no leaked mailbox entries)"
		if out.Leak != nil {
			verdict = out.Leak.Error()
		}
		fmt.Fprintf(w, "fabric close: %s\n", verdict)
		return err
	}
	return nil
}

// report prints a solve's outcome line.
func report(w io.Writer, res *krylov.Result) {
	var tags string
	if res.Stagnated {
		tags += " [stagnated]"
	}
	if res.BrokeDown {
		tags += " [breakdown]"
	}
	fmt.Fprintf(w, "%s: converged=%v iterations=%d (outer %d) relres=%.3e%s\n",
		res.Method, res.Converged, res.Iterations, res.Outer, res.RelRes, tags)
}
