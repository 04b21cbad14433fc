package grid

import "repro/internal/vec"

// SetAVX2 turns the four-wide line and box kernels on or off for the
// external tests and returns the undo.
func SetAVX2(on bool) (restore func()) {
	old := useAVX2
	useAVX2 = on && vec.AVX2()
	return func() { useAVX2 = old }
}
