package main

import (
	"strings"
	"testing"

	"repro/internal/krylov"
)

// TestMethodListsKnown: every experiment repro runs, whether asked for by
// name or by default, compares only registered methods, and an unknown name
// is refused with the list of valid ones.
func TestMethodListsKnown(t *testing.T) {
	all, err := selectFigures(nil)
	if err != nil || len(all) != 7 {
		t.Fatalf("selectFigures(nil) = %d figures, %v; want all 7", len(all), err)
	}
	for _, f := range all {
		sel, err := selectFigures([]string{f.Name})
		if err != nil || len(sel) != 1 || sel[0].Name != f.Name {
			t.Fatalf("selectFigures(%q) = %v, %v", f.Name, sel, err)
		}
		for _, name := range sel[0].Methods {
			if _, err := krylov.MethodByName(name); err != nil {
				t.Errorf("%s: %v", f.Name, err)
			}
		}
	}
	if _, err := selectFigures([]string{"fig1", "fig9"}); err == nil || !strings.Contains(err.Error(), "table1 fig1 fig2 table2 fig3 fig4 fig5") {
		t.Errorf("unknown name: err = %v, want one listing the valid names", err)
	}
}
