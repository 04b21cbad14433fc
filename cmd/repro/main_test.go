package main

import (
	"testing"

	"repro/internal/krylov"
)

// TestMethodListsKnown: every name in every figure's method list resolves in
// the registry.
func TestMethodListsKnown(t *testing.T) {
	for _, list := range [][]string{fig1Methods, fig2Methods, table2Methods, fig4Methods, fig5Methods} {
		for _, name := range list {
			if _, err := krylov.MethodByName(name); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestFig1MethodsIncludeHeadline: Fig. 1 must plot the paper's headline
// method and its two s-step predecessors.
func TestFig1MethodsIncludeHeadline(t *testing.T) {
	have := map[string]bool{}
	for _, name := range fig1Methods {
		have[name] = true
	}
	for _, want := range []string{"scg-s", "pipe-scg", "pipe-pscg"} {
		if !have[want] {
			t.Errorf("fig1 method list lacks %q", want)
		}
	}
}
