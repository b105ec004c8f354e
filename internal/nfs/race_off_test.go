//go:build !race

package nfs_test

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
