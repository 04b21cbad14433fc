// Command repro is the repository's developer CLI. With no subcommand it
// regenerates the paper's tables and figures from their one definition,
// bench.Figures, and writes each as results_<name>.txt (plus
// results_<name>.csv for the strong-scaling figures). Progress goes to
// stderr; the files hold only the record.
//
//	repro [-full] [-out dir] [name ...]
//
//	repro                  # all seven at reduced scale: about 20 s
//	repro -full            # paper scale, the committed records byte for byte:
//	                       # about 6 min and 4.4 GB peak RSS on 2 cores
//	repro -out /tmp fig3   # one experiment
//
// Names, in the paper's order: table1 fig1 fig2 table2 fig3 fig4 fig5. With
// none, all seven run.
//
// The subcommands solve, overlap and timeline (a file each) share one flag
// set, config. Bad input exits 2 with a one-line error before anything is
// built; a failed run exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runner is a parsed command line, ready to run.
type runner func(stdout, stderr io.Writer) error

var subcommands = map[string]func(args []string, stderr io.Writer) (runner, error){
	"solve":    parseSolve,
	"overlap":  parseOverlap,
	"timeline": parseTimeline,
}

// badInput marks an error in the command line (exit status 2).
type badInput struct{ error }

// parse resolves a command line to its name and runner: a subcommand when
// the first argument names one, the figures otherwise.
func parse(args []string, stderr io.Writer) (string, runner, error) {
	if len(args) > 0 {
		if p, ok := subcommands[args[0]]; ok {
			r, err := p(args[1:], stderr)
			return "repro " + args[0], r, err
		}
	}
	r, err := parseFigures(args, stderr)
	return "repro", r, err
}

// run is the whole command behind main, streams passed in so that tests
// drive it in process. It returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	name, r, err := parse(args, stderr)
	if err == nil {
		err = r(stdout, stderr)
	}
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	if errors.As(err, new(badInput)) {
		return 2
	}
	return 1
}

// parseFlags parses args into fs; -h prints usage and the flags to stderr.
func parseFlags(fs *flag.FlagSet, usage string, args []string, stderr io.Writer) error {
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(stderr, "usage: %s\n", usage)
		fs.SetOutput(stderr)
		fs.PrintDefaults()
		return err
	}
	if err != nil {
		return badInput{err}
	}
	return nil
}

func parseFigures(args []string, stderr io.Writer) (runner, error) {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	full := fs.Bool("full", false, "run at paper scale (1M-unknown problems)")
	outDir := fs.String("out", ".", "directory for the results_<name> files")
	if err := parseFlags(fs, "repro [-full] [-out dir] [name ...] | repro solve|overlap|timeline [flags]", args, stderr); err != nil {
		return nil, err
	}
	figs, err := selectFigures(fs.Args())
	if err != nil {
		return nil, badInput{err}
	}
	return func(_, stderr io.Writer) error {
		sc := bench.Reduced
		if *full {
			sc = bench.Paper
		}
		start := time.Now()
		for _, f := range figs {
			out, err := f.Render(sc)
			if err != nil {
				return fmt.Errorf("%s: %v", f.Name, err)
			}
			for _, file := range [][2]string{{".txt", out.Text}, {".csv", out.CSV}} {
				if file[1] == "" {
					continue
				}
				path := filepath.Join(*outDir, "results_"+f.Name+file[0])
				if err := os.WriteFile(path, []byte(file[1]), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(stderr, "repro: wrote %s (%v elapsed)\n", path, time.Since(start).Round(time.Second))
			}
		}
		return nil
	}, nil
}

// selectFigures returns the named experiments in order, or all for no name.
func selectFigures(names []string) ([]bench.Figure, error) {
	if len(names) == 0 {
		return bench.Figures, nil
	}
	var valid []string
	for _, f := range bench.Figures {
		valid = append(valid, f.Name)
	}
	figs := make([]bench.Figure, len(names))
	for k, name := range names {
		i := slices.Index(valid, name)
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q (want %s)", name, strings.Join(valid, " "))
		}
		figs[k] = bench.Figures[i]
	}
	return figs, nil
}

// config is the problem / solver / fabric flag set every subcommand shares.
type config struct {
	problem, matrix, method, pc, norm string
	n, scale, s, maxIter, ranks       int
	rtol                              float64
	latency                           time.Duration

	// sweep is set by newFlags; the rest by parse, the flags resolved.
	sweep    bool
	methods  []krylov.Method
	normMode krylov.NormMode
}

// newFlags returns the named subcommand's flag set holding the shared
// flags. A sweep (overlap) times a -method list over its own hop list, so
// it takes no -latency.
func newFlags(name string, sweep bool) (*flag.FlagSet, *config) {
	fs := flag.NewFlagSet("repro "+name, flag.ContinueOnError)
	c := &config{sweep: sweep}
	fs.StringVar(&c.problem, "problem", "poisson125", "built-in workload: "+strings.Join(workload.Names, ", ")+" (ignored when -matrix is set)")
	fs.StringVar(&c.matrix, "matrix", "", "MatrixMarket file to solve instead of a built-in problem")
	fs.IntVar(&c.n, "n", 40, "grid dimension for Poisson problems")
	fs.IntVar(&c.scale, "scale", 4, "reduction factor for SuiteSparse stand-ins")
	fs.StringVar(&c.method, "method", "pipe-pscg", "solver method (overlap: a comma-separated list)")
	fs.StringVar(&c.pc, "pc", "jacobi", "preconditioner")
	fs.IntVar(&c.s, "s", 3, "block size for s-step methods")
	fs.Float64Var(&c.rtol, "rtol", 0, "relative tolerance (0 = problem default)")
	fs.IntVar(&c.maxIter, "maxiter", 100000, "iteration cap")
	fs.StringVar(&c.norm, "norm", "preconditioned", "residual norm: preconditioned, unpreconditioned, natural")
	fs.IntVar(&c.ranks, "ranks", 4, "rank count for the comm runtime")
	if !sweep {
		fs.DurationVar(&c.latency, "latency", 0, "injected per-hop network latency for the comm runtime")
	}
	return fs, c
}

// bad marks a refused command line.
func bad(format string, a ...any) error { return badInput{fmt.Errorf(format, a...)} }

// parse parses args and refuses bad input — an unknown norm, method or
// problem, -ranks < 1, a stray argument — before anything is built.
func (c *config) parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	if err := parseFlags(fs, fs.Name()+" [flags]", args, stderr); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return bad("unexpected argument %q", fs.Arg(0))
	}
	if c.ranks < 1 {
		return bad("-ranks must be at least 1, got %d", c.ranks)
	}
	var ok bool
	if c.normMode, ok = map[string]krylov.NormMode{"preconditioned": krylov.NormPreconditioned,
		"unpreconditioned": krylov.NormUnpreconditioned, "natural": krylov.NormNatural}[c.norm]; !ok {
		return bad("unknown norm %q", c.norm)
	}
	for _, name := range bench.ParseList(c.method) {
		m, err := krylov.MethodByName(name)
		if err != nil {
			return badInput{err}
		}
		c.methods = append(c.methods, m)
	}
	if len(c.methods) == 0 || len(c.methods) > 1 && !c.sweep {
		return bad("-method %q: want one method", c.method)
	}
	if c.matrix == "" && !slices.Contains(workload.Names, c.problem) {
		return bad("unknown problem %q (want %s)", c.problem, strings.Join(workload.Names, ", "))
	}
	return nil
}

// load builds the problem and the solve options the flags describe.
func (c *config) load() (pr workload.Problem, opt krylov.Options, err error) {
	if c.matrix == "" {
		pr, err = workload.ProblemByName(c.problem, c.n, c.scale)
	} else {
		pr, err = readMatrix(c.matrix)
	}
	if err != nil {
		return pr, opt, err
	}
	opt = workload.DefaultOptions(pr)
	opt.S, opt.MaxIter, opt.Norm = c.s, c.maxIter, c.normMode
	if c.rtol > 0 {
		opt.RelTol = c.rtol
	}
	return pr, opt, nil
}

func readMatrix(path string) (workload.Problem, error) {
	f, err := os.Open(path)
	if err != nil {
		return workload.Problem{}, err
	}
	defer f.Close()
	a, err := sparse.ReadMatrixMarket(f)
	if err != nil {
		return workload.Problem{}, fmt.Errorf("%s: %v", path, err)
	}
	return workload.FromMatrix(path, a), nil
}

// spmd solves on fab with c's preconditioner and per-rank tracer (nil: none).
// out is nil only if the ranks never ran; a failed rank or a leak is err.
func (c *config) spmd(fab *comm.Fabric, tracer func(rank int) *obs.Tracer, pr workload.Problem, meth krylov.Method, opt krylov.Options) (*workload.Outcome, error) {
	out, err := workload.SPMD{Fabric: fab, PC: c.pc, Tracer: tracer}.Run(pr, meth, pr.B, opt)
	if err != nil {
		return nil, err
	}
	if r, err := out.FirstErr(); err != nil {
		return out, fmt.Errorf("%s rank %d: %v", meth.Name, r, err)
	}
	if out.Leak != nil {
		return out, fmt.Errorf("%s: fabric close: %v", meth.Name, out.Leak)
	}
	return out, nil
}
