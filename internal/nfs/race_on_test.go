//go:build race

package nfs_test

// raceEnabled reports that the race detector is active: sync.Pool drops
// a share of returned buffers under it, so allocation guards are
// skipped.
const raceEnabled = true
