package nfs_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"nest/internal/gsi"
	"nest/internal/nesttest"
	"nest/internal/nfs"
	"nest/internal/protocol"
)

func start(t *testing.T) (*nesttest.Fixture, *nfs.Client, nfs.FH) {
	t.Helper()
	f := nesttest.Start(t, nfs.NewHandler(), nesttest.Options{})
	f.GrantLot(t, gsi.Anonymous, 100*nesttest.MB)
	c, err := nfs.Dial(f.Addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	root, err := c.Mount("/")
	if err != nil {
		t.Fatal(err)
	}
	return f, c, root
}

func TestMountAndGetattr(t *testing.T) {
	_, c, root := start(t)
	attr, err := c.Getattr(root)
	if err != nil {
		t.Fatal(err)
	}
	if !attr.IsDir {
		t.Error("root is not a directory")
	}
}

func TestMountMissing(t *testing.T) {
	_, c, _ := start(t)
	if _, err := c.Mount("/no/such/dir"); err == nil {
		t.Error("mount of missing dir succeeded")
	}
}

func TestCreateWriteReadBack(t *testing.T) {
	_, c, root := start(t)
	fh, err := c.Create(root, "data.bin")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("nfs-block-data."), 2000) // 30 KB, multi-block
	if err := c.WriteAll(fh, payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadAll(fh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip corrupted: %d bytes", len(got))
	}
	attr, err := c.Getattr(fh)
	if err != nil || attr.Size != int64(len(payload)) {
		t.Errorf("Getattr = %+v, %v", attr, err)
	}
}

func TestLookup(t *testing.T) {
	_, c, root := start(t)
	fh, _ := c.Create(root, "f")
	c.Write(fh, 0, []byte("hello"))
	got, attr, err := c.Lookup(root, "f")
	if err != nil {
		t.Fatal(err)
	}
	if got != fh {
		t.Error("lookup returned different handle than create")
	}
	if attr.Size != 5 || attr.IsDir {
		t.Errorf("attr = %+v", attr)
	}
	if _, _, err := c.Lookup(root, "missing"); err == nil {
		t.Error("lookup of missing name succeeded")
	}
}

func TestMkdirReaddirRmdir(t *testing.T) {
	_, c, root := start(t)
	dir, err := c.Mkdir(root, "sub")
	if err != nil {
		t.Fatal(err)
	}
	c.Create(dir, "a")
	c.Create(dir, "b")
	names, err := c.Readdir(dir)
	if err != nil || len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Readdir = %v, %v", names, err)
	}
	if err := c.Rmdir(root, "sub"); err == nil {
		t.Error("rmdir of non-empty dir succeeded")
	}
	c.Remove(dir, "a")
	c.Remove(dir, "b")
	if err := c.Rmdir(root, "sub"); err != nil {
		t.Fatal(err)
	}
}

func TestPartialBlockRead(t *testing.T) {
	_, c, root := start(t)
	fh, _ := c.Create(root, "small")
	c.Write(fh, 0, []byte("0123456789"))
	block, err := c.Read(fh, 2, 4)
	if err != nil || string(block) != "2345" {
		t.Errorf("Read = %q, %v", block, err)
	}
	// Reading past EOF returns the available bytes.
	block, err = c.Read(fh, 8, 100)
	if err != nil || string(block) != "89" {
		t.Errorf("Read past EOF = %q, %v", block, err)
	}
}

func TestStaleHandle(t *testing.T) {
	_, c, _ := start(t)
	var bogus nfs.FH
	copy(bogus[:], bytes.Repeat([]byte{0xee}, nfs.FHSize))
	if _, err := c.Getattr(bogus); err == nil {
		t.Error("getattr on fabricated handle succeeded")
	} else if ne, ok := err.(*nfs.Error); !ok || ne.Status != nfs.ErrStale {
		t.Errorf("error = %v, want stale", err)
	}
}

func TestStatfs(t *testing.T) {
	_, c, root := start(t)
	r, err := c.Statfs(root)
	if err != nil {
		t.Fatal(err)
	}
	if r.BlockSize == 0 || r.Blocks == 0 {
		t.Errorf("Statfs = %+v", r)
	}
}

func TestWriteOverQuotaLot(t *testing.T) {
	f := nesttest.Start(t, nfs.NewHandler(), nesttest.Options{})
	f.GrantLot(t, gsi.Anonymous, 16*1024) // 16 KB lot
	c, err := nfs.Dial(f.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	root, err := c.Mount("/")
	if err != nil {
		t.Fatal(err)
	}
	fh, err := c.Create(root, "big")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 64*1024)
	err = c.WriteAll(fh, payload)
	if err == nil {
		t.Fatal("write over lot capacity succeeded")
	}
	if ne, ok := err.(*nfs.Error); !ok || ne.Status != nfs.ErrDQuot {
		t.Errorf("error = %v, want DQUOT", err)
	}
}

func TestUnmountAndNull(t *testing.T) {
	_, c, _ := start(t)
	if err := c.Unmount("/"); err != nil {
		t.Errorf("Unmount: %v", err)
	}
}

func TestSequentialSessions(t *testing.T) {
	f, c, root := start(t)
	fh, _ := c.Create(root, "shared")
	c.Write(fh, 0, []byte("persistent"))
	// Handles are stable across connections (deterministic handles).
	c2, err := nfs.Dial(f.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	root2, err := c2.Mount("/")
	if err != nil {
		t.Fatal(err)
	}
	fh2, attr, err := c2.Lookup(root2, "shared")
	if err != nil || fh2 != fh || attr.Size != 10 {
		t.Errorf("second session lookup = %v, %+v", err, attr)
	}
}

func TestReaddirCookiePaging(t *testing.T) {
	_, c, root := start(t)
	dir, err := c.Mkdir(root, "paged")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", "d", "e"}
	for _, name := range want {
		if _, err := c.Create(dir, name); err != nil {
			t.Fatal(err)
		}
	}
	// The high-level Readdir walks from cookie 0.
	names, err := c.Readdir(dir)
	if err != nil || len(names) != len(want) {
		t.Fatalf("Readdir = %v, %v", names, err)
	}
	for i, n := range names {
		if n != want[i] {
			t.Errorf("entry %d = %q, want %q", i, n, want[i])
		}
	}
}

func TestSetattrIsAcceptedSubset(t *testing.T) {
	// SETATTR is part of the restricted subset: accepted, attribute
	// changes ignored, current attributes returned.
	f, c, root := start(t)
	_ = f
	fh, _ := c.Create(root, "sa")
	c.Write(fh, 0, []byte("12345"))
	attr, err := c.Getattr(fh)
	if err != nil || attr.Size != 5 {
		t.Fatalf("Getattr = %+v, %v", attr, err)
	}
}

func TestWriteAtOffsetSparse(t *testing.T) {
	_, c, root := start(t)
	fh, _ := c.Create(root, "sparse")
	if _, err := c.Write(fh, 100, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	attr, _ := c.Getattr(fh)
	if attr.Size != 104 {
		t.Errorf("size = %d, want 104", attr.Size)
	}
	// The hole reads back as zeros.
	block, err := c.Read(fh, 0, 104)
	if err != nil || len(block) != 104 {
		t.Fatalf("Read = %d bytes, %v", len(block), err)
	}
	for i := 0; i < 100; i++ {
		if block[i] != 0 {
			t.Fatalf("hole byte %d = %d", i, block[i])
		}
	}
	if string(block[100:]) != "tail" {
		t.Errorf("tail = %q", block[100:])
	}
}

func TestConcurrentNFSClients(t *testing.T) {
	f, c, root := start(t)
	fh, _ := c.Create(root, "shared")
	payload := bytes.Repeat([]byte("c"), 3*8192)
	if err := c.WriteAll(fh, payload); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			cl, err := nfs.Dial(f.Addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			r, err := cl.Mount("/")
			if err != nil {
				errs <- err
				return
			}
			h, _, err := cl.Lookup(r, "shared")
			if err != nil {
				errs <- err
				return
			}
			got, err := cl.ReadAll(h)
			if err == nil && !bytes.Equal(got, payload) {
				err = fmt.Errorf("corrupted read: %d bytes", len(got))
			}
			errs <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadPaddingAndEOF reads blocks whose lengths need XDR padding
// (3 and 8190 bytes) and reads at and past EOF, which return no data.
func TestReadPaddingAndEOF(t *testing.T) {
	_, c, root := start(t)
	for _, size := range []int{3, 8190} {
		fh, err := c.Create(root, fmt.Sprintf("pad%d", size))
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i*7 + 1)
		}
		if err := c.WriteAll(fh, payload); err != nil {
			t.Fatal(err)
		}
		got, err := c.Read(fh, 0, protocol.NFSBlockSize)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("size %d: Read = %d bytes, %v", size, len(got), err)
		}
		for _, off := range []uint32{uint32(size), uint32(size) + 100} {
			got, err := c.Read(fh, off, protocol.NFSBlockSize)
			if err != nil || len(got) != 0 {
				t.Errorf("size %d: Read at %d = %d bytes, %v; want 0", size, off, len(got), err)
			}
		}
	}
}

// TestReadReturnsCallerOwnedBlocks checks that blocks returned by
// successive Reads stay intact: each is the caller's, not a view of a
// buffer the client reuses.
func TestReadReturnsCallerOwnedBlocks(t *testing.T) {
	_, c, root := start(t)
	fh, _ := c.Create(root, "owned")
	payload := bytes.Repeat([]byte("0123456789abcdef"), 2*protocol.NFSBlockSize/16)
	if err := c.WriteAll(fh, payload); err != nil {
		t.Fatal(err)
	}
	first, err1 := c.Read(fh, 0, protocol.NFSBlockSize)
	second, err2 := c.Read(fh, protocol.NFSBlockSize, protocol.NFSBlockSize)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	first = append(first, "tail"...) // must not run into the next record
	if !bytes.Equal(first[:protocol.NFSBlockSize], payload[:protocol.NFSBlockSize]) ||
		!bytes.Equal(second, payload[protocol.NFSBlockSize:]) {
		t.Error("blocks changed after a later Read")
	}
}

// TestRead64KAllocs guards the one-copy READ path: a loopback LOOKUP
// plus eight 8 KB READs of a 64 KB file, client and server together,
// allocates well under twice the payload (about 7x before the block
// was staged in a pooled buffer and decoded in place).
func TestRead64KAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under -race")
	}
	const size = 64 << 10
	_, c, root := start(t)
	fh, _ := c.Create(root, "guard")
	if err := c.WriteAll(fh, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	read := func() {
		h, _, err := c.Lookup(root, "guard")
		if err != nil {
			t.Fatal(err)
		}
		for off := uint32(0); off < size; off += protocol.NFSBlockSize {
			if b, err := c.Read(h, off, protocol.NFSBlockSize); err != nil || len(b) != protocol.NFSBlockSize {
				t.Fatalf("Read at %d = %d bytes, %v", off, len(b), err)
			}
		}
	}
	read() // warm the pools
	const files = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < files; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	if perFile := (after.TotalAlloc - before.TotalAlloc) / files; perFile >= 128<<10 {
		t.Errorf("64 KB NFS read allocates %d KB per file, want < 128 KB", perFile>>10)
	}
}
