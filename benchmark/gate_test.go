package main

import (
	"io"
	"strings"
	"testing"
)

// TestGateFiresOnCorruptedIterate runs a real (tiny) solve_* workload whose
// returned iterates are corrupted on the way to the gate, and expects every
// solve counted as failed and a non-zero exit code.
func TestGateFiresOnCorruptedIterate(t *testing.T) {
	cfg := runConfig{workload: "solve_vector", seed: 1, seconds: 0.05, scale: 0.01, outDir: t.TempDir(),
		tamper: func(x []float64) { x[len(x)/2] += 1 }}
	res, err := runOne(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted || res.Attempted == 0 {
		t.Errorf("corrupted iterates passed the gate: %+v", res)
	}
	if exitCode(res) == 0 {
		t.Error("a run with failed operations must exit non-zero")
	}
	cfg.tamper = nil
	if res, err = runOne(cfg, io.Discard); err != nil || !res.Correct || exitCode(res) != 0 {
		t.Errorf("the untampered run must pass: %+v, %v", res, err)
	}
}

// TestGateFiresOnMismatchedHash feeds the service gate replies whose x_hash
// disagrees with the library's solve, and with each other.
func TestGateFiresOnMismatchedHash(t *testing.T) {
	j := job{index: 1, class: "small", req: solveRequest{Problem: "poisson7", N: 8, Method: "pcg", RHSSeed: 1}}
	good := jobStatus{State: "converged", Converged: true, XHash: "00000000000000aa"}
	s := &serviceRun{g: newGate(), want: map[string]string{j.systemKey(): good.XHash}}
	if err := s.verify(j, good, nil); err != nil {
		t.Fatalf("matching reply rejected: %v", err)
	}
	cases := map[string]jobStatus{
		"differs from the library": {State: "converged", Converged: true, XHash: "00000000000000bb"},
		"state":                    {State: "failed", XHash: good.XHash},
	}
	for what, st := range cases {
		fresh := &serviceRun{g: newGate(), want: s.want}
		if err := fresh.verify(j, st, nil); err == nil || !strings.Contains(err.Error(), what) {
			t.Errorf("%s: got %v", what, err)
		}
	}
	// Without a library reference (the uploaded operator) replies are held
	// to agreeing with each other.
	up := job{req: solveRequest{Problem: uploadName, Method: "pcg", RHSSeed: 2}}
	if err := s.verify(up, good, nil); err != nil {
		t.Fatal(err)
	}
	other := good
	other.XHash = "00000000000000cc"
	if err := s.verify(up, other, nil); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("two hashes for one system passed: %v", err)
	}
	s.g.check(s.verify(up, other, nil))
	res := resultLine{Attempted: s.g.attempted, Failed: s.g.failed, Correct: s.g.failed == 0}
	if exitCode(res) == 0 {
		t.Error("a mismatched hash must end in a non-zero exit")
	}
}
