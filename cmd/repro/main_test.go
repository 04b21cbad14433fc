package main

import (
	"testing"

	"repro/internal/bench"
)

// TestFig1MethodsIncludeHeadline: Fig. 1 must plot the paper's headline
// method and its two s-step predecessors, and every name must resolve.
func TestFig1MethodsIncludeHeadline(t *testing.T) {
	have := map[string]bool{}
	for _, name := range fig1Methods {
		if _, err := bench.Solver(name); err != nil {
			t.Errorf("fig1 method %q: %v", name, err)
		}
		have[name] = true
	}
	for _, want := range []string{"scg-s", "pipe-scg", "pipe-pscg"} {
		if !have[want] {
			t.Errorf("fig1 method list lacks %q", want)
		}
	}
}
