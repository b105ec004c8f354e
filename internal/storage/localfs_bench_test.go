package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// The LocalFS data-plane benchmarks compare the extent-path rewrite
// against the seed implementation it replaced, over the same pump
// endpoints (SectionReader/OffsetWriter) the dispatcher uses. The seed
// is carried here as a test-only baseline — the same pattern as the
// scheduler oracle baselines — so the before/after numbers in
// docs/storage_bench.md stay reproducible. Run on tmpfs (e.g.
// TMPDIR=/dev/shm) to measure the data path rather than the disk.
//
// What the comparison isolates, per 64 KiB chunk of a GET: the seed
// path pays a pread syscall plus two copies (page cache → staging
// buffer → sink); the mapped handoff path pays one copy (page cache →
// sink). PUTs land the same way on both: source → pooled staging
// buffer → pwrite.

// seedLocalFS reproduces the pre-rewrite LocalFS exactly: bare
// descriptor wrappers with no per-file locking, fstat per Size, and a
// full-tree walk per Free call.
type seedLocalFS struct {
	root  string
	total int64
}

func (l *seedLocalFS) resolve(name string) string {
	return filepath.Join(l.root, filepath.FromSlash(Clean(name)))
}

func (l *seedLocalFS) Create(name string) (File, error) {
	f, err := os.OpenFile(l.resolve(name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, mapErr(err)
	}
	return &seedLocalFile{f: f, path: Clean(name), writable: true}, nil
}

func (l *seedLocalFS) Free() int64 {
	var used int64
	filepath.Walk(l.root, func(_ string, info fs.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			used += info.Size()
		}
		return nil
	})
	free := l.total - used
	if free < 0 {
		free = 0
	}
	return free
}

type seedLocalFile struct {
	f        *os.File
	path     string
	writable bool
}

func (f *seedLocalFile) Path() string { return f.path }

func (f *seedLocalFile) Size() int64 {
	info, err := f.f.Stat()
	if err != nil {
		return 0
	}
	return info.Size()
}

func (f *seedLocalFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.f.ReadAt(p, off)
	if err != nil && errors.Is(err, fs.ErrClosed) {
		err = ErrClosed
	}
	return n, err
}

func (f *seedLocalFile) WriteAt(p []byte, off int64) (int, error) {
	if !f.writable {
		return 0, ErrReadOnly
	}
	n, err := f.f.WriteAt(p, off)
	return n, mapErr(err)
}

func (f *seedLocalFile) Truncate(n int64) error {
	if !f.writable {
		return ErrReadOnly
	}
	return mapErr(f.f.Truncate(n))
}

func (f *seedLocalFile) Close() error { return mapErr(f.f.Close()) }

// benchLocalFile opens a file of the given size through either
// implementation; the pump endpoints detect the handoff capability on
// the extent-path file and fall back to pooled staging on the seed.
func benchLocalFile(b *testing.B, impl string, size int64) File {
	b.Helper()
	dir := b.TempDir()
	var f File
	var err error
	switch impl {
	case "seed":
		f, err = (&seedLocalFS{root: dir, total: 1 << 32}).Create("/bench")
	case "extent":
		var l *LocalFS
		if l, err = NewLocalFS(dir, 1<<32); err == nil {
			f, err = l.Create("/bench", "o")
		}
	}
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		b.Fatal(err)
	}
	return f
}

// memcpySink consumes every chunk with one copy into a fixed buffer —
// the cost shape of a socket write, without the socket.
type memcpySink struct{ buf [ExtentSize]byte }

func (s *memcpySink) Write(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		n += copy(s.buf[:], p[n:])
	}
	return n, nil
}

// BenchmarkLocalSequentialRead streams a whole file through the GET
// endpoint (SectionReader.WriteTo), steady state: the file stays hot
// across iterations, so the numbers isolate the per-chunk data path.
func BenchmarkLocalSequentialRead(b *testing.B) {
	for _, impl := range []string{"seed", "extent"} {
		for _, mbs := range []int64{1, 4, 16} {
			size := mbs << 20
			b.Run(fmt.Sprintf("%s/%dMB", impl, mbs), func(b *testing.B) {
				f := benchLocalFile(b, impl, size)
				defer f.Close()
				sink := &memcpySink{}
				b.SetBytes(size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n, err := NewSectionReader(f, 0, size).WriteTo(sink)
					if err != nil || n != size {
						b.Fatalf("WriteTo = (%d, %v)", n, err)
					}
				}
			})
		}
	}
}

// BenchmarkLocalSequentialWrite lands whole files through the PUT
// endpoint (OffsetWriter.ReadFrom). The rewrite cases keep a full-size
// file open, so no space reservation or extension happens and the
// numbers isolate the per-chunk landing path. The fresh case is what a
// PUT does: Create, land 1 MB, Close, Remove — reservation, file
// growth and the create/unlink pair included.
func BenchmarkLocalSequentialWrite(b *testing.B) {
	for _, impl := range []string{"seed", "extent"} {
		for _, mbs := range []int64{1, 4, 16} {
			size := mbs << 20
			b.Run(fmt.Sprintf("%s/%dMB", impl, mbs), func(b *testing.B) {
				f := benchLocalFile(b, impl, size)
				defer f.Close()
				data := make([]byte, size)
				src := bytes.NewReader(data)
				b.SetBytes(size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					src.Reset(data)
					n, err := NewOffsetWriter(f, 0).ReadFrom(src)
					if err != nil || n != size {
						b.Fatalf("ReadFrom = (%d, %v)", n, err)
					}
				}
			})
		}
		b.Run(impl+"/fresh/1MB", func(b *testing.B) {
			const size = 1 << 20
			dir := b.TempDir()
			seed := &seedLocalFS{root: dir, total: 1 << 32}
			l, err := NewLocalFS(dir, 1<<32)
			if err != nil {
				b.Fatal(err)
			}
			data := make([]byte, size)
			src := bytes.NewReader(data)
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var f File
				if impl == "seed" {
					f, err = seed.Create("/put")
				} else {
					f, err = l.Create("/put", "o")
				}
				if err != nil {
					b.Fatal(err)
				}
				src.Reset(data)
				if n, err := NewOffsetWriter(f, 0).ReadFrom(src); err != nil || n != size {
					b.Fatalf("ReadFrom = (%d, %v)", n, err)
				}
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
				if impl == "seed" {
					err = os.Remove(seed.resolve("/put"))
				} else {
					err = l.Remove("/put")
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocalFree pins the O(1) claim: the maintained counter is
// one atomic load (0 allocs/op, flat across file counts) where the
// seed walked the whole tree per call.
func BenchmarkLocalFree(b *testing.B) {
	for _, impl := range []string{"seed", "extent"} {
		for _, files := range []int{16, 256, 4096} {
			b.Run(fmt.Sprintf("%s/files=%d", impl, files), func(b *testing.B) {
				dir := b.TempDir()
				for i := 0; i < files; i++ {
					if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("f%d", i)), make([]byte, 1024), 0o644); err != nil {
						b.Fatal(err)
					}
				}
				var free func() int64
				switch impl {
				case "seed":
					free = (&seedLocalFS{root: dir, total: 1 << 32}).Free
				case "extent":
					l, err := NewLocalFS(dir, 1<<32)
					if err != nil {
						b.Fatal(err)
					}
					free = l.Free
				}
				want := int64(1<<32 - files*1024)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got := free(); got != want {
						b.Fatalf("Free = %d, want %d", got, want)
					}
				}
			})
		}
	}
}
