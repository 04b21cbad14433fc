package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// repro runs the command in process and returns its exit status, stdout and
// stderr.
func repro(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// mustRun runs the command and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) (string, string) {
	t.Helper()
	code, out, errb := repro(t, args...)
	if code != 0 {
		t.Fatalf("repro %s: exit %d\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), code, out, errb)
	}
	return out, errb
}

// resultLine returns the solve's outcome line ("<method>: converged=...").
func resultLine(t *testing.T, out string) string {
	t.Helper()
	m := regexp.MustCompile(`(?m)^\S+: converged=.*$`).FindString(out)
	if m == "" {
		t.Fatalf("no result line in:\n%s", out)
	}
	return m
}

func TestSolveRuntimes(t *testing.T) {
	tiny := []string{"solve", "-problem", "poisson7", "-n", "8", "-ranks", "2", "-nodes", "1,2"}
	for rt, want := range map[string]string{
		"seq":  "counters: iter=",
		"comm": "fabric close: clean",
		"sim":  "    2 nodes: total",
	} {
		out, _ := mustRun(t, append(tiny, "-runtime", rt)...)
		if !strings.Contains(resultLine(t, out), "converged=true") || !strings.Contains(out, want) {
			t.Errorf("-runtime %s: want a converged solve and %q in:\n%s", rt, want, out)
		}
	}
}

// TestSolveMatrixFile: -matrix loads a MatrixMarket file in place of a
// built-in problem.
func TestSolveMatrixFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.mtx")
	mtx := "%%MatrixMarket matrix coordinate real symmetric\n3 3 5\n1 1 2\n2 1 -1\n2 2 2\n3 2 -1\n3 3 2\n"
	if err := os.WriteFile(path, []byte(mtx), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _ := mustRun(t, "solve", "-matrix", path, "-method", "pcg")
	if !strings.HasPrefix(out, path+": N=3 nnz=7 ") || !strings.Contains(resultLine(t, out), "converged=true") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestSolveDropRecovers: message drops on the comm runtime are recovered
// exactly — the faulty solve reports the fault-free outcome, a true
// residual and a clean fabric close.
func TestSolveDropRecovers(t *testing.T) {
	args := []string{"solve", "-runtime", "comm", "-problem", "poisson7", "-n", "8", "-ranks", "4", "-method", "pipe-pscg"}
	clean, _ := mustRun(t, args...)
	faulty, _ := mustRun(t, append(args, "-drop", "0.05", "-seed", "3")...)
	if got, want := resultLine(t, faulty), resultLine(t, clean); got != want {
		t.Errorf("result under drops %q, fault-free %q", got, want)
	}
	for _, want := range []string{"true residual: ", "fabric close: clean", "comm faults: injected drop="} {
		if !strings.Contains(faulty, want) {
			t.Errorf("missing %q in:\n%s", want, faulty)
		}
	}
	if strings.Contains(faulty, "injected drop=0 ") {
		t.Errorf("no message was dropped:\n%s", faulty)
	}
}

// TestSolveLatencyFaultFree: without a fault flag the comm runtime runs
// the plain fabric — no faults line — and a 30 ms hop is paid in full.
func TestSolveLatencyFaultFree(t *testing.T) {
	out, _ := mustRun(t, "solve", "-runtime", "comm", "-problem", "poisson7", "-n", "4", "-ranks", "2", "-method", "pcg", "-latency", "30ms")
	if strings.Contains(out, "faults: seed=") {
		t.Errorf("fault-free run armed the injector:\n%s", out)
	}
	checkLatencyPaid(t, out)
}

// TestSolveLatencyArmedNoTimeout: -seed arms the injector at zero rates, and
// with it the 20 ms receive deadline. A 30 ms hop is still paid in full — no
// timeout, no resend — since nothing was lost.
func TestSolveLatencyArmedNoTimeout(t *testing.T) {
	out, _ := mustRun(t, "solve", "-runtime", "comm", "-problem", "poisson7", "-n", "4", "-ranks", "2", "-method", "pcg", "-latency", "30ms", "-seed", "1")
	if !strings.Contains(out, "faults: seed=1") {
		t.Errorf("-seed did not arm the injector:\n%s", out)
	}
	checkLatencyPaid(t, out)
}

// checkLatencyPaid requires a comm pcg solve at a 30 ms hop to book no
// timeout and no resend, and to take at least its 15 hops of wall time.
func checkLatencyPaid(t *testing.T, out string) {
	t.Helper()
	if !strings.Contains(out, "recovered timeout=0 resend=0 ") {
		t.Errorf("latency alone touched the recovery machinery:\n%s", out)
	}
	// rank 0 makes 15 blocking allreduces (allr=15), one 30 ms hop each.
	m := regexp.MustCompile(`wall time: (\S+) over`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no wall time in:\n%s", out)
	}
	if d, err := time.ParseDuration(m[1]); err != nil || d < 15*30*time.Millisecond {
		t.Errorf("wall time %s: want at least 15 hops of 30ms", m[1])
	}
}

// TestTimelineRoundTrip exports a trace at the Makefile's settings, checks
// the breakdown-restart demo's pinned outcome, then validates the file.
func TestTimelineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	_, log := mustRun(t, "timeline", "-problem", "poisson7", "-n", "24", "-ranks", "4", "-latency", "200us", "-o", path)
	if !strings.Contains(log, "pid 1: breakdown-restart demo brokedown=false diverged=true iters=276 recovery spans=12") {
		t.Errorf("pid-1 demo moved:\n%s", log)
	}
	out, _ := mustRun(t, "timeline", "-check", path)
	if !strings.HasPrefix(out, "ok: ") {
		t.Errorf("-check: %q", out)
	}
	if code, _, errb := repro(t, "timeline", "-check", filepath.Join(t.TempDir(), "missing.json")); code != 1 || errb == "" {
		t.Errorf("-check of a missing file: exit %d, stderr %q", code, errb)
	}
}

func TestOverlapOneRep(t *testing.T) {
	out, _ := mustRun(t, "overlap", "-reps", "1", "-problem", "poisson7", "-n", "6", "-ranks", "2", "-method", "pcg,pipe-pscg", "-norm", "natural")
	for _, want := range []string{"min of 1 reps", "800µs", "0 (blocking)", "%", "iterations: map[pcg:"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestBadInputRefused: bad input exits 2 with a one-line error before any
// solve runs (nothing on stdout).
func TestBadInputRefused(t *testing.T) {
	for _, args := range [][]string{
		{"solve", "-runtime", "comm", "-ranks", "0"},
		{"timeline", "-ranks", "0"},
		{"overlap", "-reps", "0"},
		{"solve", "-drop", "0.1"},
		{"solve", "-runtime", "sim", "-nodes", "1,x"},
		{"solve", "-nodes", "0"},
		{"solve", "-runtime", "gpu"},
		{"solve", "-norm", "energy"},
		{"solve", "-method", "nope"},
		{"solve", "-method", "pcg,pipecg"},
		{"solve", "-problem", "poisson9"},
		{"solve", "-bogus"},
		{"solve", "stray"},
		{"fig9"},
	} {
		code, out, errb := repro(t, args...)
		if code != 2 || out != "" || strings.Count(errb, "\n") != 1 || !strings.HasPrefix(errb, "repro") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2, nothing, one line", args, code, out, errb)
		}
	}
	if code, _, errb := repro(t, "solve", "-h"); code != 0 || !strings.Contains(errb, "-nochecksum") {
		t.Errorf("solve -h: exit %d, stderr %q", code, errb)
	}
}

// TestDocumentedCommandLinesParse: every repro argument list in the docs
// and the Makefile parses. The lists are cut from the files themselves:
// after "run ./cmd/repro", "$B/repro" or "`repro", to the end of the line
// (a trailing \ continues it), a backtick, a comment or a shell operator.
// Lists holding a placeholder (R, DIR, [name ...], <name>, …, $f) are
// skipped.
func TestDocumentedCommandLinesParse(t *testing.T) {
	invocation := regexp.MustCompile("(?:run\\s+\\./cmd/|\\$B/|`)repro((?:[ \\t]+[^\\s`#|;&]+)*)")
	placeholder := regexp.MustCompile(`[\[…<$]|^[A-Z]+$`)
	seen := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "Makefile", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		text := regexp.MustCompile(`\\\n\s*`).ReplaceAllString(string(data), " ")
	lists:
		for _, m := range invocation.FindAllStringSubmatch(text, -1) {
			args := strings.Fields(m[1])
			for _, a := range args {
				if placeholder.MatchString(a) {
					continue lists
				}
			}
			seen++
			if _, _, err := parse(args, io.Discard); err != nil && !errors.Is(err, flag.ErrHelp) {
				t.Errorf("%s: repro %s: %v", doc, m[1], err)
			}
		}
	}
	if seen < 40 {
		t.Errorf("found %d documented argument lists, want at least 40", seen)
	}
}
