package main

import (
	"io"
	"sync/atomic"
	"time"

	"nest/internal/storage"
)

// layerTimes accumulates the storage/protocol split measured by the
// timing filesystem wrapper.
type layerTimes struct {
	meta *sampler // Create/Open/OpenRW/Stat/List/Remove/Mkdir/Rmdir, µs

	storageNs atomic.Int64 // inside the backend, sink/source time excluded
	sinkNs    atomic.Int64 // inside protocol sink Write calls (GET handoff)
	sourceNs  atomic.Int64 // inside protocol source Read calls (PUT handoff)

	storageBytes atomic.Int64 // bytes through any data method
	sinkBytes    atomic.Int64 // bytes handed to protocol sinks
	sourceBytes  atomic.Int64 // bytes pulled from protocol sources
}

func newLayerTimes() *layerTimes { return &layerTimes{meta: newSampler(1 << 18)} }

// reset zeroes the split; the traced phase calls it after set-up so
// seeding is not counted.
func (lt *layerTimes) reset() {
	lt.meta.reset()
	for _, v := range []*atomic.Int64{&lt.storageNs, &lt.sinkNs, &lt.sourceNs, &lt.storageBytes, &lt.sinkBytes, &lt.sourceBytes} {
		v.Store(0)
	}
}

func (lt *layerTimes) metaSince(t0 time.Time) {
	lt.meta.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
}

// timedFS wraps a storage.FS and times every call into the backend, in
// the pattern of storage.SimFS: metadata calls individually, data calls
// split into the backend's own time and the time spent inside the
// protocol sink or source the backend hands bytes to.
type timedFS struct {
	inner storage.FS
	lt    *layerTimes
}

func (t *timedFS) Create(name, owner string) (storage.File, error) {
	t0 := time.Now()
	f, err := t.inner.Create(name, owner)
	t.lt.metaSince(t0)
	return wrapFile(f, err, t.lt)
}

func (t *timedFS) Open(name string) (storage.File, error) {
	t0 := time.Now()
	f, err := t.inner.Open(name)
	t.lt.metaSince(t0)
	return wrapFile(f, err, t.lt)
}

func (t *timedFS) OpenRW(name string) (storage.File, error) {
	t0 := time.Now()
	f, err := t.inner.OpenRW(name)
	t.lt.metaSince(t0)
	return wrapFile(f, err, t.lt)
}

func (t *timedFS) Stat(name string) (storage.Info, error) {
	t0 := time.Now()
	info, err := t.inner.Stat(name)
	t.lt.metaSince(t0)
	return info, err
}

func (t *timedFS) List(name string) ([]storage.Info, error) {
	t0 := time.Now()
	infos, err := t.inner.List(name)
	t.lt.metaSince(t0)
	return infos, err
}

func (t *timedFS) Mkdir(name, owner string) error {
	t0 := time.Now()
	err := t.inner.Mkdir(name, owner)
	t.lt.metaSince(t0)
	return err
}

func (t *timedFS) Rmdir(name string) error {
	t0 := time.Now()
	err := t.inner.Rmdir(name)
	t.lt.metaSince(t0)
	return err
}

func (t *timedFS) Remove(name string) error {
	t0 := time.Now()
	err := t.inner.Remove(name)
	t.lt.metaSince(t0)
	return err
}

func (t *timedFS) Total() int64 { return t.inner.Total() }
func (t *timedFS) Free() int64  { return t.inner.Free() }

// wrapFile returns a timed file exposing exactly the extent-handoff
// capabilities of f: the transfer pump chooses its path by type
// assertion, so a wrapper that added or hid one would change the path
// being measured.
func wrapFile(f storage.File, err error, lt *layerTimes) (storage.File, error) {
	if err != nil {
		return nil, err
	}
	base := &timedFile{inner: f, lt: lt}
	_, w := f.(storage.RangeWriterTo)
	_, r := f.(storage.RangeReaderFrom)
	switch {
	case w && r:
		return timedFileWR{base}, nil
	case w:
		return timedFileW{base}, nil
	case r:
		return timedFileR{base}, nil
	}
	return base, nil
}

type timedFile struct {
	inner storage.File
	lt    *layerTimes
}

func (f *timedFile) Path() string           { return f.inner.Path() }
func (f *timedFile) Size() int64            { return f.inner.Size() }
func (f *timedFile) Truncate(n int64) error { return f.inner.Truncate(n) }
func (f *timedFile) Close() error           { return f.inner.Close() }

func (f *timedFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.inner.ReadAt(p, off)
	f.lt.storageNs.Add(time.Since(t0).Nanoseconds())
	f.lt.storageBytes.Add(int64(n))
	return n, err
}

func (f *timedFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.inner.WriteAt(p, off)
	f.lt.storageNs.Add(time.Since(t0).Nanoseconds())
	f.lt.storageBytes.Add(int64(n))
	return n, err
}

// writeRangeTo forwards the read-side handoff, timing the protocol
// sink's Write calls separately so socket time is not billed to the
// backend.
func (f *timedFile) writeRangeTo(w io.Writer, off, n int64) (int64, error) {
	tw := timedWriter{w: w}
	t0 := time.Now()
	moved, err := f.inner.(storage.RangeWriterTo).WriteRangeTo(&tw, off, n)
	total := time.Since(t0).Nanoseconds()
	f.lt.sinkNs.Add(tw.ns)
	f.lt.storageNs.Add(total - tw.ns)
	f.lt.sinkBytes.Add(moved)
	f.lt.storageBytes.Add(moved)
	return moved, err
}

// readRangeFrom forwards the write-side handoff, timing the protocol
// source's Read calls separately.
func (f *timedFile) readRangeFrom(r io.Reader, off, limit int64) (int64, error) {
	tr := timedReader{r: r}
	t0 := time.Now()
	moved, err := f.inner.(storage.RangeReaderFrom).ReadRangeFrom(&tr, off, limit)
	total := time.Since(t0).Nanoseconds()
	f.lt.sourceNs.Add(tr.ns)
	f.lt.storageNs.Add(total - tr.ns)
	f.lt.sourceBytes.Add(moved)
	f.lt.storageBytes.Add(moved)
	return moved, err
}

type timedFileW struct{ *timedFile }

func (f timedFileW) WriteRangeTo(w io.Writer, off, n int64) (int64, error) {
	return f.writeRangeTo(w, off, n)
}

type timedFileR struct{ *timedFile }

func (f timedFileR) ReadRangeFrom(r io.Reader, off, limit int64) (int64, error) {
	return f.readRangeFrom(r, off, limit)
}

type timedFileWR struct{ *timedFile }

func (f timedFileWR) WriteRangeTo(w io.Writer, off, n int64) (int64, error) {
	return f.writeRangeTo(w, off, n)
}

func (f timedFileWR) ReadRangeFrom(r io.Reader, off, limit int64) (int64, error) {
	return f.readRangeFrom(r, off, limit)
}

// timedWriter and timedReader time the calls the backend makes into the
// protocol side during one handoff call (single goroutine, no atomics).
type timedWriter struct {
	w  io.Writer
	ns int64
}

func (t *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.w.Write(p)
	t.ns += time.Since(t0).Nanoseconds()
	return n, err
}

type timedReader struct {
	r  io.Reader
	ns int64
}

func (t *timedReader) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.r.Read(p)
	t.ns += time.Since(t0).Nanoseconds()
	return n, err
}
