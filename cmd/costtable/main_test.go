package main

import (
	"testing"

	"repro/internal/krylov"
)

// TestMethodListsKnown: every measured row names a registered method.
func TestMethodListsKnown(t *testing.T) {
	for _, name := range measuredMethods {
		if _, err := krylov.MethodByName(name); err != nil {
			t.Error(err)
		}
	}
}
