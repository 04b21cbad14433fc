//go:build race

package vec

// raceEnabled lets the exhaustive bit-identity sweeps skip their largest
// size under the race detector, where every element access is instrumented.
const raceEnabled = true
