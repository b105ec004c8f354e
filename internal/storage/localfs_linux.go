//go:build linux

package storage

import (
	"math"
	"os"
	"syscall"
)

// On Linux the LocalFS read handoff maps the file MAP_SHARED and
// PROT_READ: the kernel page cache *is* the extent store, and reads
// hand resident page slices straight to the sink. Compared to the
// staged path this removes one memcpy and one syscall per 64 KiB chunk
// — the same two costs the MemFS extent handoff removed from the wire
// path. Writes land with pwrite (see ReadRangeFrom).
//
// MAP_SHARED is coherent with pread/pwrite on the same file, so mapped
// reads see pwritten bytes and a handle whose mapping failed stages
// through pooled buffers against the same bytes. SIGBUS is impossible
// by construction: every access through the mapping is clamped to the
// node's logical size under the file lock, and the size is published
// only after the bytes are in the file.

// maxMapBytes caps a single file mapping; files larger than this fall
// back to the staged path rather than exhausting address space.
const maxMapBytes = int64(1) << 40

// ensureMapped makes sure the node's mapping covers [0, end) if it
// can, taking the file lock only when the mapping must grow. Called
// lockless from the read path; mapLen mirrors len(mapped) atomically
// for the fast check.
//
// Growth is geometric and extent-rounded so a streaming transfer
// remaps O(log size) times, and the whole current file is mapped
// eagerly so readahead hints can run ahead of the transfer. mmap
// failure (e.g. ENOMEM, or a filesystem without shared mappings) marks
// the node broken and the handle falls back to staged reads
// permanently.
func (n *localNode) ensureMapped(f *os.File, end int64) {
	if n.mapLen.Load() >= end || n.mapBroken.Load() || end <= 0 {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	cur := int64(len(n.mapped))
	if cur >= end || n.mapBroken.Load() {
		return
	}
	target := end
	if s := n.size.Load(); target < s {
		target = s
	}
	if target < 2*cur {
		target = 2 * cur
	}
	target = (target + ExtentSize - 1) / ExtentSize * ExtentSize
	if target > maxMapBytes || target > int64(math.MaxInt) {
		n.mapBroken.Store(true)
		return
	}
	m, err := syscall.Mmap(int(f.Fd()), 0, int(target), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		n.mapBroken.Store(true)
		return
	}
	if n.mapped != nil {
		syscall.Munmap(n.mapped)
	}
	n.mapped = m
	n.mapLen.Store(int64(len(m)))
}

// munmapLocked tears down the mapping. Caller holds n.mu exclusively,
// so in-flight range operations have drained.
func (n *localNode) munmapLocked() {
	if n.mapped == nil {
		return
	}
	syscall.Munmap(n.mapped)
	n.mapped = nil
	n.mapLen.Store(0)
}

// pageMask caches the VM page size for aligning madvise ranges.
var pageMask = func() int64 { return int64(os.Getpagesize() - 1) }()

// adviseWillNeed hints the kernel to stage m[lo:hi) — the readahead
// window for a streaming GET. Best-effort: alignment is fixed up and
// errors ignored.
func adviseWillNeed(m []byte, lo, hi int64) {
	lo &^= pageMask
	if lo < 0 || hi <= lo || hi > int64(len(m)) {
		return
	}
	syscall.Madvise(m[lo:hi], syscall.MADV_WILLNEED)
}
