package krylov

import "testing"

// TestMethodRegistry: every entry resolves by its own name, names are
// unique, the ladder's rungs are registered methods, and an unknown name is
// an error.
func TestMethodRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Methods {
		if seen[m.Name] {
			t.Errorf("duplicate method %q", m.Name)
		}
		seen[m.Name] = true
		got, err := MethodByName(m.Name)
		if err != nil || got.Name != m.Name || got.Solve == nil {
			t.Errorf("MethodByName(%q) = %+v, %v", m.Name, got, err)
		}
	}
	for _, rung := range LadderRungs {
		if !seen[rung.Name] {
			t.Errorf("ladder rung %q is not a registered method", rung.Name)
		}
	}
	if _, err := MethodByName("nope"); err == nil {
		t.Error("unknown method must error")
	}
	if m, _ := MethodByName("scg"); !m.Unpreconditioned || !m.SStep {
		t.Errorf("scg traits wrong: %+v", m)
	}
	if m, _ := MethodByName("pcg"); m.Unpreconditioned || m.SStep {
		t.Errorf("pcg traits wrong: %+v", m)
	}
}
