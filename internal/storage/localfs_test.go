package storage

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
)

func newTestLocalFS(t *testing.T, capacity int64) *LocalFS {
	t.Helper()
	l, err := NewLocalFS(t.TempDir(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLocalResolveConfinesHostileNames pins the path-escape defence:
// whatever name a client sends — dot-dot chains, absolute paths,
// backslashes, embedded NULs aside — resolve must land inside the
// root. This is the jail for every wire protocol above the store.
func TestLocalResolveConfinesHostileNames(t *testing.T) {
	l := newTestLocalFS(t, 1<<30)
	root := l.root + string(filepath.Separator)
	hostile := []string{
		"..",
		"../../etc/passwd",
		"/../..",
		"/..//../",
		"a/../../..",
		"a/b/../../../../x",
		"....//....//x",
		"/abs/path",
		"//double//slash",
		"..\\..\\windows\\system32",
		"a\\..\\..\\x",
		"\\\\server\\share",
		"./../.",
		"...",
		"..%2f..%2fx", // encoded dot-dot must NOT be decoded by the store
		strings.Repeat("../", 40) + "deep",
	}
	for _, name := range hostile {
		p := l.resolve(name)
		if p != l.root && !strings.HasPrefix(p, root) {
			t.Errorf("resolve(%q) = %q escapes root %q", name, p, l.root)
		}
	}

	// End to end: creating a hostile name must not place a file outside
	// the root directory.
	for _, name := range []string{"../../escape", "..\\..\\escape2"} {
		f, err := l.Create(name, "u")
		if err != nil {
			continue
		}
		f.WriteAt([]byte("x"), 0)
		f.Close()
	}
	outside, err := os.ReadDir(filepath.Dir(l.root))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range outside {
		if strings.Contains(e.Name(), "escape") {
			t.Fatalf("hostile create escaped root: %s", e.Name())
		}
	}
}

// TestLocalReadAtErrorMapping pins the satellite fix: ReadAt routes
// real I/O errors through mapErr exactly like WriteAt, and both honor
// the closed-handle and read-only contracts.
func TestLocalReadAtErrorMapping(t *testing.T) {
	l := newTestLocalFS(t, 1<<30)
	f, err := l.Create("/f", "u")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("payload"), 0); err != nil {
		t.Fatal(err)
	}

	ro, err := l.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.WriteAt([]byte("x"), 0); err != ErrReadOnly {
		t.Fatalf("read-only WriteAt err = %v, want ErrReadOnly", err)
	}
	if err := ro.Truncate(0); err != ErrReadOnly {
		t.Fatalf("read-only Truncate err = %v, want ErrReadOnly", err)
	}

	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 0); err != ErrClosed {
		t.Fatalf("closed ReadAt err = %v, want ErrClosed", err)
	}
	if _, err := f.WriteAt(buf, 0); err != ErrClosed {
		t.Fatalf("closed WriteAt err = %v, want ErrClosed", err)
	}
	if err := f.Close(); err != ErrClosed {
		t.Fatalf("double Close err = %v, want ErrClosed", err)
	}

	// A handle whose descriptor died underneath still maps to the
	// package error vocabulary, not a bare *os.PathError.
	stale, err := l.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	stale.(*localFile).f.Close() // kill the fd out from under the handle
	if _, err := stale.ReadAt(buf, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("dead-descriptor ReadAt err = %v, want ErrClosed", err)
	}
	stale.Close()
}

// TestLocalFreeAccounting pins the O(1) space accounting: the counter
// is seeded by the mount scan and maintained by write/truncate/remove
// — never recomputed by walking the tree.
func TestLocalFreeAccounting(t *testing.T) {
	dir := t.TempDir()
	// Pre-existing data is picked up by the mount scan.
	if err := os.WriteFile(filepath.Join(dir, "old"), make([]byte, 1000), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := NewLocalFS(dir, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Free(); got != 9_000 {
		t.Fatalf("Free after mount scan = %d, want 9000", got)
	}

	f, _ := l.Create("/new", "u")
	if _, err := f.WriteAt(make([]byte, 4000), 0); err != nil {
		t.Fatal(err)
	}
	if got := l.Free(); got != 5_000 {
		t.Fatalf("Free after write = %d, want 5000", got)
	}

	// Overlapping rewrite grows nothing.
	if _, err := f.WriteAt(make([]byte, 1000), 1000); err != nil {
		t.Fatal(err)
	}
	if got := l.Free(); got != 5_000 {
		t.Fatalf("Free after overlapping rewrite = %d, want 5000", got)
	}

	// Truncate both directions.
	if err := f.Truncate(6000); err != nil {
		t.Fatal(err)
	}
	if got := l.Free(); got != 3_000 {
		t.Fatalf("Free after truncate-up = %d, want 3000", got)
	}
	if err := f.Truncate(500); err != nil {
		t.Fatal(err)
	}
	if got := l.Free(); got != 8_500 {
		t.Fatalf("Free after truncate-down = %d, want 8500", got)
	}

	// Admission control uses the maintained counter.
	if _, err := f.WriteAt(make([]byte, 9000), 500); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("overcommit WriteAt err = %v, want ErrNoSpace", err)
	}
	if got := l.Free(); got != 8_500 {
		t.Fatalf("Free after rejected write = %d, want 8500 (reservation rolled back)", got)
	}
	f.Close()

	// Create-truncate of an existing file releases its bytes.
	g, _ := l.Create("/old", "u")
	if got := l.Free(); got != 9_500 {
		t.Fatalf("Free after create-truncate = %d, want 9500", got)
	}
	g.Close()
	l.Remove("/old")
	if err := l.Remove("/new"); err != nil {
		t.Fatal(err)
	}
	if got := l.Free(); got != 10_000 {
		t.Fatalf("Free after removes = %d, want 10000", got)
	}

	// The O(1) claim, allocation half: Free never allocates.
	if allocs := testing.AllocsPerRun(100, func() { l.Free() }); allocs != 0 {
		t.Errorf("Free allocates %v per call, want 0", allocs)
	}
}

// TestLocalFDCache exercises the descriptor cache: a close/open pair
// on the same path is a hit, Remove invalidates, and the LRU bound
// evicts.
func TestLocalFDCache(t *testing.T) {
	l := newTestLocalFS(t, 1<<30)
	writeLocal(t, l, "/hot", []byte("hot bytes"))

	s0 := LocalFSStats()
	f, err := l.Open("/hot")
	if err != nil {
		t.Fatal(err)
	}
	f.Close() // read-only descriptor parks in the cache
	g, err := l.Open("/hot")
	if err != nil {
		t.Fatal(err)
	}
	if got := LocalFSStats().FDCacheHits - s0.FDCacheHits; got != 1 {
		t.Fatalf("cache hits after reopen = %d, want 1", got)
	}
	// The cached descriptor still reads the right bytes.
	if got := readBack(t, g); string(got) != "hot bytes" {
		t.Fatalf("cache-hit read = %q", got)
	}
	g.Close()

	// Remove invalidates: the next open must not resurrect the dead
	// descriptor.
	if err := l.Remove("/hot"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Open("/hot"); err != ErrNotFound {
		t.Fatalf("open after remove = %v, want ErrNotFound", err)
	}

	// Create-truncate through the cache: a cached descriptor for a
	// rewritten path serves the new content (same inode, new bytes).
	writeLocal(t, l, "/rw", []byte("first version"))
	h, _ := l.Open("/rw")
	h.Close()
	writeLocal(t, l, "/rw", []byte("v2"))
	h2, err := l.Open("/rw")
	if err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, h2); string(got) != "v2" {
		t.Fatalf("read after rewrite through cache = %q, want \"v2\"", got)
	}
	h2.Close()

	// LRU bound: shrink the cache and overflow it.
	l.SetFDCacheLimit(2)
	for _, name := range []string{"/e1", "/e2", "/e3"} {
		writeLocal(t, l, name, []byte("x"))
	}
	e0 := LocalFSStats().FDCacheEvictions
	for _, name := range []string{"/e1", "/e2", "/e3"} {
		f, err := l.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if got := LocalFSStats().FDCacheEvictions - e0; got < 1 {
		t.Fatalf("evictions after overflow = %d, want >= 1", got)
	}

	// Disabled cache takes nothing.
	l.SetFDCacheLimit(0)
	m0 := LocalFSStats()
	f3, _ := l.Open("/e1")
	f3.Close()
	f4, _ := l.Open("/e1")
	f4.Close()
	if got := LocalFSStats().FDCacheHits - m0.FDCacheHits; got != 0 {
		t.Fatalf("cache hits with cache disabled = %d, want 0", got)
	}
}

// TestLocalSyncOnClose pins the durability knob: writable handles
// fsync on close when enabled, and never otherwise.
func TestLocalSyncOnClose(t *testing.T) {
	l := newTestLocalFS(t, 1<<30)
	s0 := LocalFSStats().Fsyncs
	writeLocal(t, l, "/nosync", []byte("x"))
	if got := LocalFSStats().Fsyncs - s0; got != 0 {
		t.Fatalf("fsyncs with knob off = %d, want 0", got)
	}

	l.SetSyncOnClose(true)
	writeLocal(t, l, "/sync", []byte("x"))
	if got := LocalFSStats().Fsyncs - s0; got != 1 {
		t.Fatalf("fsyncs with knob on = %d, want 1", got)
	}

	// Read-only closes never fsync.
	f, _ := l.Open("/sync")
	f.Close()
	if got := LocalFSStats().Fsyncs - s0; got != 1 {
		t.Fatalf("fsyncs after read-only close = %d, want 1", got)
	}
}

// TestLocalStaleHandleAfterRemove mirrors the MemFS contract: a handle
// open across a Remove observes an empty file, and recreating the path
// yields an independent file.
func TestLocalStaleHandleAfterRemove(t *testing.T) {
	l := newTestLocalFS(t, 1<<30)
	writeLocal(t, l, "/victim", []byte("doomed bytes"))

	stale, err := l.Open("/victim")
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	if err := l.Remove("/victim"); err != nil {
		t.Fatal(err)
	}
	if got := stale.Size(); got != 0 {
		t.Fatalf("stale handle size after remove = %d, want 0", got)
	}
	if _, err := stale.ReadAt(make([]byte, 4), 0); err != io.EOF {
		t.Fatalf("stale handle ReadAt after remove = %v, want EOF", err)
	}

	// Recreate: fresh file, unrelated to the stale handle.
	writeLocal(t, l, "/victim", []byte("reborn"))
	fresh, err := l.Open("/victim")
	if err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, fresh); string(got) != "reborn" {
		t.Fatalf("recreated file reads %q", got)
	}
	fresh.Close()
	if got := stale.Size(); got != 0 {
		t.Fatalf("stale handle sees recreated size %d, want 0", got)
	}
}

// TestLocalHandoffCounters checks that range operations account their
// fragments to the handoff/pooled counters (whichever path the
// platform takes) and that totals reconcile with the bytes moved.
func TestLocalHandoffCounters(t *testing.T) {
	l := newTestLocalFS(t, 1<<30)
	data := patternData(3*ExtentSize, 11)

	s0 := LocalFSStats()
	f, _ := l.Create("/c", "u")
	if n, err := f.(RangeReaderFrom).ReadRangeFrom(bytes.NewReader(data), 0, int64(len(data))); err != nil || n != int64(len(data)) {
		t.Fatalf("ReadRangeFrom = (%d, %v)", n, err)
	}
	var sink bytes.Buffer
	if n, err := f.(RangeWriterTo).WriteRangeTo(&sink, 0, int64(len(data))); err != nil || n != int64(len(data)) {
		t.Fatalf("WriteRangeTo = (%d, %v)", n, err)
	}
	f.Close()
	if !bytes.Equal(sink.Bytes(), data) {
		t.Fatal("round-trip mismatch")
	}

	s1 := LocalFSStats()
	moved := (s1.HandoffChunks - s0.HandoffChunks) + (s1.PooledChunks - s0.PooledChunks)
	if moved != 6 { // 3 extents in + 3 extents out
		t.Fatalf("handoff+pooled fragment count = %d, want 6", moved)
	}
}

// chunkReader yields at most n bytes per Read: a source that returns
// short reads, like a socket.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// failingReader hands out data and reports err with the last bytes, so
// the failure lands in the middle of whichever fragment reads them.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	n := copy(p, r.data)
	r.data = r.data[n:]
	if len(r.data) == 0 {
		return n, r.err
	}
	return n, nil
}

// TestLocalReadRangeFromShortReads pins the early return on a short
// source read: one fragment call per stall, nil error, the partial
// bytes landed and accounted, and a pump looping over the calls still
// assembles the whole stream.
func TestLocalReadRangeFromShortReads(t *testing.T) {
	const capacity = 1 << 24
	l := newTestLocalFS(t, capacity)
	data := patternData(2*ExtentSize+777, 12)
	f, _ := l.Create("/short", "u")
	defer f.Close()
	rf := f.(RangeReaderFrom)

	src := &chunkReader{r: bytes.NewReader(data), n: 1000}
	n, err := rf.ReadRangeFrom(src, 0, int64(len(data)))
	if err != nil || n != 1000 {
		t.Fatalf("first short read = (%d, %v), want (1000, nil)", n, err)
	}
	if got := f.Size(); got != 1000 {
		t.Fatalf("size after short read = %d, want 1000", got)
	}
	if got := l.Free(); got != capacity-1000 {
		t.Fatalf("Free after short read = %d, want %d", got, capacity-1000)
	}

	rest, err := NewOffsetWriter(f, 1000).ReadFrom(src)
	if err != nil || rest != int64(len(data))-1000 {
		t.Fatalf("pumped rest = (%d, %v)", rest, err)
	}
	if !bytes.Equal(readBack(t, f), data) {
		t.Fatal("short-read assembly mismatch")
	}
	if got := l.Free(); got != capacity-int64(len(data)) {
		t.Fatalf("Free after assembly = %d, want %d", got, capacity-int64(len(data)))
	}
}

// TestLocalReadRangeFromSourceError pins the failure contract: a
// source that fails before or in the middle of a fragment returns its
// error, the size covers exactly the bytes that landed, and no
// reservation outlives the call.
func TestLocalReadRangeFromSourceError(t *testing.T) {
	const capacity = 1 << 24
	boom := errors.New("source failed")
	l := newTestLocalFS(t, capacity)
	f, _ := l.Create("/fail", "u")
	defer f.Close()
	rf := f.(RangeReaderFrom)

	if n, err := rf.ReadRangeFrom(iotest.ErrReader(boom), 0, 3*ExtentSize); n != 0 || err != boom {
		t.Fatalf("failing source = (%d, %v), want (0, %v)", n, err, boom)
	}
	if got := l.Free(); got != capacity {
		t.Fatalf("Free after failed read = %d, want %d unchanged", got, capacity)
	}
	if got := f.Size(); got != 0 {
		t.Fatalf("size after failed read = %d, want 0", got)
	}

	data := patternData(ExtentSize+ExtentSize/2, 13)
	n, err := rf.ReadRangeFrom(&failingReader{data: data, err: boom}, 0, 3*ExtentSize)
	if n != int64(len(data)) || err != boom {
		t.Fatalf("mid-fragment failure = (%d, %v), want (%d, %v)", n, err, len(data), boom)
	}
	if got := f.Size(); got != int64(len(data)) {
		t.Fatalf("size after mid-fragment failure = %d, want %d", got, len(data))
	}
	if got := l.Free(); got != capacity-int64(len(data)) {
		t.Fatalf("Free after mid-fragment failure = %d, want %d", got, capacity-int64(len(data)))
	}
	if !bytes.Equal(readBack(t, f), data) {
		t.Fatal("landed bytes mismatch")
	}
}

// TestLocalReadRangeFromNoSpace pins admission at a fragment boundary:
// the fragments that fit land, the next one is refused before its
// source read, and the file on disk matches the published size.
func TestLocalReadRangeFromNoSpace(t *testing.T) {
	const capacity = 2*ExtentSize + 100
	l := newTestLocalFS(t, capacity)
	f, _ := l.Create("/full", "u")
	defer f.Close()
	data := patternData(3*ExtentSize, 14)
	src := bytes.NewReader(data)

	n, err := f.(RangeReaderFrom).ReadRangeFrom(src, 0, int64(len(data)))
	if n != 2*ExtentSize || !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-capacity fill = (%d, %v), want (%d, ErrNoSpace)", n, err, 2*ExtentSize)
	}
	if got := src.Len(); got != ExtentSize {
		t.Fatalf("source read past the refused fragment: %d bytes left, want %d", got, ExtentSize)
	}
	if got := f.Size(); got != 2*ExtentSize {
		t.Fatalf("size = %d, want %d", got, 2*ExtentSize)
	}
	if got := l.Free(); got != 100 {
		t.Fatalf("Free = %d, want 100", got)
	}
	info, err := os.Stat(l.resolve("/full"))
	if err != nil || info.Size() != 2*ExtentSize {
		t.Fatalf("on-disk size = %v (%v), want %d", info.Size(), err, 2*ExtentSize)
	}
	if !bytes.Equal(readBack(t, f), data[:2*ExtentSize]) {
		t.Fatal("landed prefix mismatch")
	}
}

// TestLocalReadRangeFromZeroAlloc pins the steady-state claim for the
// PUT landing path: growing a file fragment by fragment through the
// pooled buffer allocates nothing.
func TestLocalReadRangeFromZeroAlloc(t *testing.T) {
	l := newTestLocalFS(t, 1<<24)
	f, _ := l.Create("/f", "u")
	defer f.Close()
	rf := f.(RangeReaderFrom)
	data := patternData(4*ExtentSize, 15)
	src := bytes.NewReader(data)

	fill := func() {
		if err := f.Truncate(0); err != nil {
			t.Fatal(err)
		}
		src.Reset(data)
		if n, err := rf.ReadRangeFrom(src, 0, int64(len(data))); err != nil || n != int64(len(data)) {
			t.Fatalf("ReadRangeFrom = (%d, %v)", n, err)
		}
	}
	fill() // warm: pooled buffer allocated once
	if allocs := testing.AllocsPerRun(50, fill); allocs >= 1 {
		t.Errorf("ReadRangeFrom allocates %v per 4-extent fill, want 0", allocs)
	}
}

// writeLocal creates path with the given content and closes it.
func writeLocal(t *testing.T, l *LocalFS, path string, data []byte) {
	t.Helper()
	f, err := l.Create(path, "u")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 0 {
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
