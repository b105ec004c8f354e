package storage

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nest/internal/bufpool"
)

// DefaultFDCacheSize bounds the open-descriptor cache: read-only
// descriptors of recently closed files are kept so repeated GETs and
// re-opens of hot files skip the open/close syscall pair.
const DefaultFDCacheSize = 64

// DefaultLocalReadAhead is the sequential readahead hint window for
// streaming GETs: when the handoff read loop approaches the frontier
// of previously advised pages, the next window of this many bytes is
// madvised WILLNEED so the kernel stages it while the current chunk
// is on the wire. Sized to a few scheduler quanta.
const DefaultLocalReadAhead int64 = 1 << 20

// LocalFS counters, exposed through LocalFSStats for the observability
// layer. Package-wide atomics, like the extent allocator counters: the
// descriptor cache and data path are process-shared machinery.
var (
	statLocalFDHits      atomic.Int64
	statLocalFDMisses    atomic.Int64
	statLocalFDEvictions atomic.Int64
	statLocalPreads      atomic.Int64
	statLocalPwrites     atomic.Int64
	statLocalFsyncs      atomic.Int64
	statLocalHandoff     atomic.Int64
	statLocalPooled      atomic.Int64
)

// LocalStats is a snapshot of the cumulative LocalFS data-path
// counters across all instances.
type LocalStats struct {
	FDCacheHits      int64 // Opens served from the descriptor cache
	FDCacheMisses    int64 // Opens that paid the open syscall
	FDCacheEvictions int64 // cached descriptors closed by LRU pressure
	Preads           int64 // positioned read syscalls issued
	Pwrites          int64 // positioned write syscalls issued
	Fsyncs           int64 // fsyncs issued by the sync-on-close knob
	HandoffChunks    int64 // read fragments handed to the sink from mapped pages
	PooledChunks     int64 // range fragments staged through pooled buffers
}

// LocalFSStats reports the cumulative LocalFS counters.
func LocalFSStats() LocalStats {
	return LocalStats{
		FDCacheHits:      statLocalFDHits.Load(),
		FDCacheMisses:    statLocalFDMisses.Load(),
		FDCacheEvictions: statLocalFDEvictions.Load(),
		Preads:           statLocalPreads.Load(),
		Pwrites:          statLocalPwrites.Load(),
		Fsyncs:           statLocalFsyncs.Load(),
		HandoffChunks:    statLocalHandoff.Load(),
		PooledChunks:     statLocalPooled.Load(),
	}
}

// LocalFS serves the local filesystem rooted at a directory — the
// backend a production NeST runs on (paper §5: "in our current
// implementation, we currently use only the local filesystem").
//
// The data path mirrors the extent-based MemFS architecture:
//
//   - Locking is two-tier with the same lock order (namespace before
//     file, never the reverse). mu guards only the per-path node table;
//     each open file carries its own RWMutex for data operations, so
//     transfers on distinct files never contend and readers of one
//     file overlap each other.
//   - Space accounting is an atomic maintained counter with
//     reserve/rollback semantics, scanned once at mount — Free() is
//     O(1) and allocation-free instead of walking the tree.
//   - The read-side extent handoff (RangeWriterTo) is implemented over
//     a read-only shared page mapping of the file when the platform
//     supports it: the page cache is the extent store, and resident
//     page slices are handed to the sink with no staging copy and no
//     per-chunk syscall. Where mapping is unavailable the loop stages
//     through pooled chunk buffers. The write side (RangeReaderFrom)
//     reads the source into a pooled chunk buffer and lands it with
//     one pwrite per fragment. Both are zero allocations per chunk.
//   - Read-only descriptors of closed files are kept in a bounded LRU
//     cache so repeated GETs of hot files skip open/close syscalls.
type LocalFS struct {
	root  string
	total int64
	epoch time.Time

	// mu guards the node table (and the open/create/remove decisions
	// that keep it consistent with the used counter). It is the
	// namespace tier of the two-tier locking; per-file data locks live
	// on the nodes.
	mu    sync.RWMutex
	nodes map[string]*localNode

	used        atomic.Int64 // logical bytes; reserve/rollback, never locked
	syncOnClose atomic.Bool
	readAhead   atomic.Int64

	fds fdCache
}

// localNode is the shared lock-and-size state of one open file. Nodes
// exist only while at least one handle is open; the table entry is
// dropped when the last handle closes, so the table is bounded by the
// open-handle count.
type localNode struct {
	name string

	// refs and unlinked are guarded by LocalFS.mu.
	refs     int
	unlinked bool

	// mu is the per-file data lock; size is additionally atomic so
	// Size/Stat never block on in-flight data operations.
	mu   sync.RWMutex
	size atomic.Int64

	// Read-only page mapping of the file (platform-specific; nil where
	// unsupported). mapped is guarded by mu; mapLen mirrors len(mapped)
	// atomically for the lock-free fast check in ensureMapped.
	mapped    []byte
	mapBroken atomic.Bool
	mapLen    atomic.Int64

	// raNext is the readahead frontier: file offset up to which
	// WILLNEED has been advised.
	raNext atomic.Int64
}

// NewLocalFS returns a backend rooted at dir, which must exist.
// capacity is the advertised total space (local filesystems do not
// expose a portable free-space call in the stdlib, so NeST tracks an
// administrative capacity). The tree under dir is walked once to seed
// the maintained used-bytes counter; every later Free() is O(1).
func NewLocalFS(dir string, capacity int64) (*LocalFS, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return nil, ErrNotDir
	}
	l := &LocalFS{
		root:  dir,
		total: capacity,
		epoch: time.Now(),
		nodes: make(map[string]*localNode),
	}
	l.used.Store(scanUsed(dir))
	l.readAhead.Store(DefaultLocalReadAhead)
	l.fds.init(DefaultFDCacheSize)
	return l, nil
}

// scanUsed sums regular-file sizes under root — the one O(tree) pass,
// paid at mount.
func scanUsed(root string) int64 {
	var used int64
	filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			used += info.Size()
		}
		return nil
	})
	return used
}

// SetSyncOnClose toggles the durability knob: when on, writable
// handles fsync before closing so a crash after Close loses nothing.
func (l *LocalFS) SetSyncOnClose(on bool) { l.syncOnClose.Store(on) }

// SetReadAhead overrides the sequential readahead hint window for
// streaming reads (0 disables).
func (l *LocalFS) SetReadAhead(n int64) { l.readAhead.Store(n) }

// SetFDCacheLimit bounds the read-descriptor cache (0 disables it).
func (l *LocalFS) SetFDCacheLimit(n int) { l.fds.setLimit(n) }

// resolve maps a cleaned virtual path under the root directory. Clean
// collapses dot-dot segments against the virtual root before the path
// touches the host filesystem, so hostile names cannot escape it.
func (l *LocalFS) resolve(name string) string {
	return filepath.Join(l.root, filepath.FromSlash(Clean(name)))
}

func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, fs.ErrNotExist):
		return ErrNotFound
	case errors.Is(err, fs.ErrExist):
		return ErrExists
	case errors.Is(err, fs.ErrClosed):
		return ErrClosed
	}
	return err
}

// reserve atomically claims n logical bytes against capacity, rolling
// the claim back if it would overcommit — identical admission
// semantics to MemFS, and the only space check on the write path.
func (l *LocalFS) reserve(n int64) error {
	if n <= 0 {
		return nil
	}
	if l.used.Add(n) > l.total {
		l.used.Add(-n)
		return ErrNoSpace
	}
	return nil
}

// release returns n reserved bytes.
func (l *LocalFS) release(n int64) {
	if n > 0 {
		l.used.Add(-n)
	}
}

// adopt returns the node for a cleaned path, creating it (with the
// given size) on first open and bumping the handle count. Caller holds
// l.mu exclusively.
func (l *LocalFS) adopt(cleaned string, size int64) *localNode {
	if node := l.nodes[cleaned]; node != nil {
		node.refs++
		return node
	}
	_, base := Split(cleaned)
	node := &localNode{name: base, refs: 1}
	node.size.Store(size)
	l.nodes[cleaned] = node
	return node
}

// Create implements FS.
func (l *LocalFS) Create(name, owner string) (File, error) {
	cleaned := Clean(name)
	p := l.resolve(cleaned)
	l.mu.Lock()
	defer l.mu.Unlock()
	if node := l.nodes[cleaned]; node != nil {
		// Truncating rewrite of an open file: cut the data under the
		// file lock (namespace→file ordering) so concurrent readers of
		// old handles see a clean cut.
		node.mu.Lock()
		f, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			node.mu.Unlock()
			return nil, mapErr(err)
		}
		l.release(node.size.Load())
		node.size.Store(0)
		node.raNext.Store(0)
		node.mu.Unlock()
		node.refs++
		return &localFile{fs: l, node: node, f: f, path: cleaned, writable: true}, nil
	}
	var oldSize int64
	if info, err := os.Stat(p); err == nil {
		if info.IsDir() {
			return nil, ErrIsDir
		}
		oldSize = info.Size()
	}
	f, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, mapErr(err)
	}
	l.release(oldSize)
	node := l.adopt(cleaned, 0)
	return &localFile{fs: l, node: node, f: f, path: cleaned, writable: true}, nil
}

// Open implements FS. Hot files hit the descriptor cache and skip the
// open syscall entirely.
func (l *LocalFS) Open(name string) (File, error) {
	cleaned := Clean(name)
	l.mu.Lock()
	defer l.mu.Unlock()
	if f := l.fds.take(cleaned); f != nil {
		statLocalFDHits.Add(1)
		node := l.nodes[cleaned]
		if node == nil {
			info, err := f.Stat()
			if err != nil {
				f.Close()
				return nil, mapErr(err)
			}
			node = l.adopt(cleaned, info.Size())
		} else {
			node.refs++
		}
		return &localFile{fs: l, node: node, f: f, path: cleaned}, nil
	}
	statLocalFDMisses.Add(1)
	f, err := os.Open(l.resolve(cleaned))
	if err != nil {
		return nil, mapErr(err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, mapErr(err)
	}
	if info.IsDir() {
		f.Close()
		return nil, ErrIsDir
	}
	node := l.nodes[cleaned]
	if node == nil {
		node = l.adopt(cleaned, info.Size())
	} else {
		node.refs++
	}
	return &localFile{fs: l, node: node, f: f, path: cleaned}, nil
}

// OpenRW implements FS.
func (l *LocalFS) OpenRW(name string) (File, error) {
	cleaned := Clean(name)
	p := l.resolve(cleaned)
	if info, err := os.Stat(p); err == nil && info.IsDir() {
		return nil, ErrIsDir
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.OpenFile(p, os.O_RDWR, 0)
	if err != nil {
		return nil, mapErr(err)
	}
	node := l.nodes[cleaned]
	if node == nil {
		info, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, mapErr(err)
		}
		node = l.adopt(cleaned, info.Size())
	} else {
		node.refs++
	}
	return &localFile{fs: l, node: node, f: f, path: cleaned, writable: true}, nil
}

// Stat implements FS. For open files the logical size comes from the
// node: atomic, and never blocked by in-flight data operations.
func (l *LocalFS) Stat(name string) (Info, error) {
	cleaned := Clean(name)
	info, err := os.Stat(l.resolve(cleaned))
	if err != nil {
		return Info{}, mapErr(err)
	}
	out := l.info(cleaned, info)
	if !info.IsDir() {
		l.mu.RLock()
		if node := l.nodes[cleaned]; node != nil {
			out.Size = node.size.Load()
		}
		l.mu.RUnlock()
	}
	return out, nil
}

func (l *LocalFS) info(path string, info fs.FileInfo) Info {
	name := info.Name()
	if path == "/" {
		name = "/"
	}
	return Info{
		Name:    name,
		Path:    path,
		Size:    info.Size(),
		IsDir:   info.IsDir(),
		ModTime: info.ModTime().Sub(l.epoch),
	}
}

// List implements FS.
func (l *LocalFS) List(name string) ([]Info, error) {
	entries, err := os.ReadDir(l.resolve(name))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, ErrNotDir
	}
	dir := Clean(name)
	out := make([]Info, 0, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		p := dir + "/" + e.Name()
		if dir == "/" {
			p = "/" + e.Name()
		}
		out = append(out, l.info(p, info))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Mkdir implements FS.
func (l *LocalFS) Mkdir(name, owner string) error {
	return mapErr(os.Mkdir(l.resolve(name), 0o755))
}

// Rmdir implements FS.
func (l *LocalFS) Rmdir(name string) error {
	p := l.resolve(name)
	info, err := os.Stat(p)
	if err != nil {
		return mapErr(err)
	}
	if !info.IsDir() {
		return ErrNotDir
	}
	if entries, err := os.ReadDir(p); err == nil && len(entries) > 0 {
		return ErrNotEmpty
	}
	return mapErr(os.Remove(p))
}

// Remove implements FS. Like MemFS, stale open handles observe an
// empty file afterwards (the logical size is cut to zero under the
// file lock), and the path's node and cached descriptor are dropped so
// a recreated file starts fresh.
func (l *LocalFS) Remove(name string) error {
	cleaned := Clean(name)
	p := l.resolve(cleaned)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fds.invalidate(cleaned)
	if node := l.nodes[cleaned]; node != nil {
		node.mu.Lock()
		if err := os.Remove(p); err != nil {
			node.mu.Unlock()
			return mapErr(err)
		}
		l.release(node.size.Load())
		node.size.Store(0)
		node.mu.Unlock()
		node.unlinked = true
		delete(l.nodes, cleaned)
		return nil
	}
	info, err := os.Stat(p)
	if err != nil {
		return mapErr(err)
	}
	if info.IsDir() {
		return ErrIsDir
	}
	if err := os.Remove(p); err != nil {
		return mapErr(err)
	}
	l.release(info.Size())
	return nil
}

// Total implements FS.
func (l *LocalFS) Total() int64 { return l.total }

// Free implements FS: one atomic load against the maintained counter,
// O(1) and allocation-free regardless of tree size.
func (l *LocalFS) Free() int64 {
	free := l.total - l.used.Load()
	if free < 0 {
		free = 0
	}
	return free
}

// closeHandle settles a handle's node bookkeeping: the node table
// entry drops with the last handle (tearing down the page mapping
// under the file lock so in-flight range operations drain first), and
// read-only descriptors of still-linked files go to the LRU cache
// instead of being closed.
func (l *LocalFS) closeHandle(f *localFile) error {
	l.mu.Lock()
	node := f.node
	node.refs--
	if node.refs == 0 {
		if l.nodes[f.path] == node {
			delete(l.nodes, f.path)
		}
		node.mu.Lock()
		node.munmapLocked()
		node.mu.Unlock()
	}
	cached := false
	if !f.writable && !node.unlinked {
		cached = l.fds.put(f.path, f.f)
	}
	l.mu.Unlock()
	if cached {
		return nil
	}
	return f.f.Close()
}

// localFile is an open handle: a descriptor plus the shared per-path
// node carrying the file's data lock and logical size.
type localFile struct {
	fs       *LocalFS
	node     *localNode
	f        *os.File
	path     string
	writable bool
	closed   atomic.Bool
}

func (f *localFile) Path() string { return f.path }

// Size reads the atomic logical length: no lock, no fstat syscall.
func (f *localFile) Size() int64 { return f.node.size.Load() }

func (f *localFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, ErrClosed
	}
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	size := f.node.size.Load()
	if off < 0 || off >= size {
		return 0, io.EOF
	}
	n := len(p)
	if int64(n) > size-off {
		n = int(size - off)
	}
	statLocalPreads.Add(1)
	rn, err := f.f.ReadAt(p[:n], off)
	if err != nil && err != io.EOF {
		return rn, mapErr(err)
	}
	if rn < len(p) {
		return rn, io.EOF
	}
	return rn, nil
}

func (f *localFile) WriteAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, ErrClosed
	}
	if !f.writable {
		return 0, ErrReadOnly
	}
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	size := f.node.size.Load()
	end := off + int64(len(p))
	if grow := end - size; grow > 0 {
		if err := f.fs.reserve(grow); err != nil {
			return 0, err
		}
	}
	statLocalPwrites.Add(1)
	n, err := f.f.WriteAt(p, off)
	if end > size {
		// Settle the reservation against the bytes that landed.
		newEnd := off + int64(n)
		high := newEnd
		if high < size {
			high = size
		}
		f.fs.release(end - high)
		if newEnd > size {
			f.node.size.Store(newEnd)
		}
	}
	return n, mapErr(err)
}

func (f *localFile) Truncate(n int64) error {
	if f.closed.Load() {
		return ErrClosed
	}
	if !f.writable {
		return ErrReadOnly
	}
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	cur := f.node.size.Load()
	switch {
	case n > cur:
		if err := f.fs.reserve(n - cur); err != nil {
			return err
		}
		if err := f.f.Truncate(n); err != nil {
			f.fs.release(n - cur)
			return mapErr(err)
		}
	case n < cur:
		if err := f.f.Truncate(n); err != nil {
			return mapErr(err)
		}
		f.fs.release(cur - n)
	}
	f.node.size.Store(n)
	return nil
}

func (f *localFile) Close() error {
	if f.closed.Swap(true) {
		return ErrClosed
	}
	var syncErr error
	if f.writable && f.fs.syncOnClose.Load() {
		statLocalFsyncs.Add(1)
		syncErr = f.f.Sync()
	}
	closeErr := f.fs.closeHandle(f)
	if syncErr != nil {
		return mapErr(syncErr)
	}
	return mapErr(closeErr)
}

// WriteRangeTo implements RangeWriterTo with the same contract as the
// MemFS extent handoff: it walks the resident bytes covering
// [off, off+n) under the file's read lock, handing each extent-sized
// fragment to w — straight from the page mapping when available (no
// staging copy, no read syscall), otherwise through a pooled chunk
// buffer. Requests past EOF (or clamped by it) report io.EOF after
// delivering the resident prefix, mirroring ReadAt.
//
// Lock-hold discipline: w.Write runs under the file's read lock, so a
// concurrent Truncate cannot cut pages out from under the sink (the
// clamp to the locked-in size keeps every handed-out slice within the
// file). Callers bound n for preemption granularity, exactly as on
// MemFS.
func (f *localFile) WriteRangeTo(w io.Writer, off, n int64) (int64, error) {
	if f.closed.Load() {
		return 0, ErrClosed
	}
	if n <= 0 {
		return 0, nil
	}
	f.node.ensureMapped(f.f, off+n)
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	size := f.node.size.Load()
	if off >= size {
		return 0, io.EOF
	}
	req := n
	if n > size-off {
		n = size - off
	}
	f.maybeReadahead(off, n, size)
	var written int64
	var err error
	if m := f.node.mapped; int64(len(m)) >= off+n {
		written, err = writeRangeFrom(w, m[:off+n], off)
	} else {
		written, err = f.writeRangeStaged(w, off, n)
	}
	if err != nil {
		return written, err
	}
	if n < req {
		return written, io.EOF
	}
	return written, nil
}

// maybeReadahead advances the WILLNEED frontier ahead of a sequential
// read at [off, off+n). The frontier is advanced with a CAS so
// concurrent readers advise each window once; non-sequential access
// (far behind the frontier) is left to the kernel's own heuristics.
// Purely a hint: failures are ignored and the data path is unchanged.
func (f *localFile) maybeReadahead(off, n, size int64) {
	window := f.fs.readAhead.Load()
	if window <= 0 {
		return
	}
	m := f.node.mapped
	if m == nil {
		return
	}
	end := off + n
	for {
		next := f.node.raNext.Load()
		if end+window <= next || end < next-2*window {
			return
		}
		target := end + window
		if target > size {
			target = size
		}
		if t := int64(len(m)); target > t {
			target = t
		}
		if target <= next {
			return
		}
		if f.node.raNext.CompareAndSwap(next, target) {
			lo := next
			if lo < off {
				lo = off
			}
			if lo < target {
				adviseWillNeed(m, lo, target)
			}
			return
		}
	}
}

// writeRangeFrom hands data[off:] to w in extent-aligned fragments, so
// sinks observe the identical Write call sequence as the MemFS extent
// walk (protocol framing like MODE E emits one block per Write).
func writeRangeFrom(w io.Writer, data []byte, off int64) (int64, error) {
	var written int64
	end := int64(len(data))
	for pos := off; pos < end; {
		fragEnd := (pos/ExtentSize + 1) * ExtentSize
		if fragEnd > end {
			fragEnd = end
		}
		wn, err := w.Write(data[pos:fragEnd])
		written += int64(wn)
		pos += int64(wn)
		if err != nil {
			return written, err
		}
		if pos < fragEnd {
			return written, io.ErrShortWrite
		}
		statLocalHandoff.Add(1)
	}
	return written, nil
}

// writeRangeStaged is the portable fallback: pread each extent-aligned
// fragment into a pooled chunk buffer and hand that to w. Zero
// allocations per chunk at steady state.
func (f *localFile) writeRangeStaged(w io.Writer, off, n int64) (int64, error) {
	bp := bufpool.Get(ExtentSize)
	defer bufpool.Put(bp)
	buf := *bp
	var written int64
	for written < n {
		pos := off + written
		fragEnd := (pos/ExtentSize + 1) * ExtentSize
		if end := off + n; fragEnd > end {
			fragEnd = end
		}
		want := int(fragEnd - pos)
		statLocalPreads.Add(1)
		rn, rerr := f.f.ReadAt(buf[:want], pos)
		if rn > 0 {
			wn, werr := w.Write(buf[:rn])
			written += int64(wn)
			if werr != nil {
				return written, werr
			}
			if wn < rn {
				return written, io.ErrShortWrite
			}
			statLocalPooled.Add(1)
		}
		if rerr != nil && rerr != io.EOF {
			return written, mapErr(rerr)
		}
		if rn < want {
			// The file is shorter than the locked-in logical size —
			// possible only under external modification; surface EOF.
			return written, io.EOF
		}
	}
	return written, nil
}

// ReadRangeFrom implements RangeReaderFrom with the MemFS contract: it
// reads the source into a pooled extent buffer and lands each
// extent-aligned fragment of [off, off+limit) with one pwrite.
// Capacity is reserved per fragment before the read and the unused
// remainder released after (a short or failing source never leaves
// phantom usage); the logical size is published only after the bytes
// land; a short source read returns early with a nil error so the
// file's write lock is held for at most one fragment per stall.
//
// Writes never go through the page mapping: a PUT creates a fresh file,
// and landing it through a writable mapping would cost an ftruncate
// pair per fragment, a remap per geometric growth step and a page fault
// per page, where pwrite costs one syscall per fragment.
func (f *localFile) ReadRangeFrom(r io.Reader, off, limit int64) (int64, error) {
	if f.closed.Load() {
		return 0, ErrClosed
	}
	if !f.writable {
		return 0, ErrReadOnly
	}
	if limit <= 0 {
		return 0, nil
	}
	bp := bufpool.Get(ExtentSize)
	defer bufpool.Put(bp)
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	var moved int64
	for moved < limit {
		pos := off + moved
		fragEnd := (pos/ExtentSize + 1) * ExtentSize
		if end := off + limit; fragEnd > end {
			fragEnd = end
		}
		size := f.node.size.Load()
		if fragEnd > size {
			if err := f.fs.reserve(fragEnd - size); err != nil {
				return moved, err
			}
		}
		want := fragEnd - pos
		rn, rerr := r.Read((*bp)[:want])
		var wn int
		var werr error
		if rn > 0 {
			statLocalPwrites.Add(1)
			wn, werr = f.f.WriteAt((*bp)[:rn], pos)
		}
		newEnd := pos + int64(wn)
		if fragEnd > size {
			// Settle the reservation: keep only the growth covered by
			// bytes that landed, release the rest.
			high := newEnd
			if high < size {
				high = size
			}
			f.fs.release(fragEnd - high)
			if newEnd > size {
				f.node.size.Store(newEnd)
			}
		}
		moved += int64(wn)
		if werr != nil {
			return moved, mapErr(werr)
		}
		if wn > 0 {
			statLocalPooled.Add(1)
		}
		if rerr != nil {
			return moved, rerr
		}
		if int64(wn) < want {
			return moved, nil
		}
	}
	return moved, nil
}
