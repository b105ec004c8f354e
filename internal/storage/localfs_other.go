//go:build !linux

package storage

import "os"

// Portable stubs: without a shared page mapping the LocalFS read
// handoff stages every fragment through pooled chunk buffers — still
// zero allocations per chunk, just one extra copy and syscall.

func (n *localNode) ensureMapped(f *os.File, end int64) {}

func (n *localNode) munmapLocked() {}

func adviseWillNeed(m []byte, lo, hi int64) {}
