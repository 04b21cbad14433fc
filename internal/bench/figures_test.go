package bench

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/krylov"
)

// TestFiguresGolden pins every figure's record byte for byte. Table I renders
// the same at every scale and is compared against the committed
// results_table1.txt itself. The other six render at a tiny scale and are
// compared against testdata/figures, written by the per-figure commands the
// Figures table replaced (their trailing "wrote <csv>" line removed):
//
//	scaling -problem poisson125 -n 12 -csv fig1.csv > fig1.txt
//	scaling -problem ecology2 -scale 16 -csv fig2.csv > fig2.txt
//	suitesparse -scale 16 > table2.txt
//	ssense -n 12 > fig3.txt
//	precond -n 12 > fig4.txt
//	accuracy -n 12 > fig5.txt
//
// A change that moves a record on purpose rewrites them with
// `go test ./internal/bench -run TestFiguresGolden -update`.
func TestFiguresGolden(t *testing.T) {
	for _, f := range Figures {
		t.Run(f.Name, func(t *testing.T) {
			base := filepath.Join("testdata", "figures", f.Name)
			if f.Name == "table1" {
				base = filepath.Join("..", "..", "results_table1")
			}
			out, err := f.Render(Scale{N: 12, Reduce: 16})
			if err != nil {
				t.Fatal(err)
			}
			golden(t, base+".txt", out.Text)
			golden(t, base+".csv", out.CSV)
		})
	}
}

var update = flag.Bool("update", false, "rewrite the TestFiguresGolden records")

// golden compares got against the file at path; a missing file stands for
// the empty output.
func golden(t *testing.T, path, got string) {
	t.Helper()
	if *update && got != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestFigureMethodsKnown: every method a figure compares resolves in the
// registry.
func TestFigureMethodsKnown(t *testing.T) {
	for _, f := range Figures {
		for _, name := range f.Methods {
			if _, err := krylov.MethodByName(name); err != nil {
				t.Errorf("%s: %v", f.Name, err)
			}
		}
	}
}
