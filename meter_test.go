package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// meteredFields are the trace.Counters fields engine.Meter books: the
// products, PC applications, reductions and charged work whose per-call
// rule the paper's Table I counts are checked against.
var meteredFields = map[string]bool{
	"SpMV": true, "SpMVFlops": true, "HaloExchanges": true, "PCApply": true, "PCFlops": true,
	"Allreduce": true, "Iallreduce": true, "ReduceWords": true, "Flops": true,
}

// TestMeterIsTheOnlyCounterWriter scans the engine layer and its users for
// an assignment or increment to a metered counter field outside
// engine/meter.go. One module owns the accounting rule; an engine that
// books a call by hand drifts from the others (and from sim's recording)
// unseen. The match is by field name, so a write to any struct field of
// these names is refused here too.
func TestMeterIsTheOnlyCounterWriter(t *testing.T) {
	dirs := []string{"engine", "comm", "blockcg", "sim", "serve", "workload"}
	files := 0
	for _, dir := range dirs {
		err := filepath.WalkDir(filepath.Join("internal", dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") ||
				strings.HasSuffix(path, "_test.go") || filepath.ToSlash(path) == "internal/engine/meter.go" {
				return err
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			files++
			refuse := func(lhs ast.Expr) {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && meteredFields[sel.Sel.Name] {
					t.Errorf("%s: writes the metered counter %s outside engine.Meter", fset.Position(lhs.Pos()), sel.Sel.Name)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						refuse(lhs)
					}
				case *ast.IncDecStmt:
					refuse(s.X)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 20 {
		t.Fatalf("scanned %d files; the engine layer is missing", files)
	}
}
