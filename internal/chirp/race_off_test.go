//go:build !race

package chirp_test

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
