package transfer

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"

	"nest/internal/storage"
)

// The backend equivalence suite is the PR 5 gate applied one layer
// down: where the handoff-vs-pooled suite proved the two data paths
// interchangeable over one store, this suite proves the two stores
// interchangeable under one data path. The same managed workloads run
// against MemFS and LocalFS and must produce byte-identical output and
// identical scheduler and obs accounting — the wire, the scheduler,
// and the metrics cannot tell which store served the transfer.

// eqBackends returns the stores under comparison; "memfs" is the
// reference implementation.
func eqBackends(t testing.TB) map[string]storage.FS {
	t.Helper()
	local, err := storage.NewLocalFS(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]storage.FS{
		"memfs":   storage.NewMemFS(nil, 1<<30),
		"localfs": local,
	}
}

type eqOutcome struct {
	out   []byte
	stats ManagerStats
	cls   ClassStats
	res   Result
}

// compareOutcomes asserts every backend matched the memfs reference
// exactly: bytes, result charge, obs charge, admissions, preemptions.
func compareOutcomes(t *testing.T, got map[string]eqOutcome) {
	t.Helper()
	ref := got["memfs"]
	for name, o := range got {
		if name == "memfs" {
			continue
		}
		if !bytes.Equal(o.out, ref.out) {
			t.Errorf("%s: output differs from memfs (%d vs %d bytes)", name, len(o.out), len(ref.out))
		}
		if o.res.Bytes != ref.res.Bytes {
			t.Errorf("%s: result bytes %d, memfs %d", name, o.res.Bytes, ref.res.Bytes)
		}
		if o.cls.Bytes != ref.cls.Bytes {
			t.Errorf("%s: obs bytes %d, memfs %d", name, o.cls.Bytes, ref.cls.Bytes)
		}
		if o.stats.Admissions != ref.stats.Admissions || o.stats.Preemptions != ref.stats.Preemptions {
			t.Errorf("%s: scheduler charges adm=%d pre=%d, memfs adm=%d pre=%d",
				name, o.stats.Admissions, o.stats.Preemptions, ref.stats.Admissions, ref.stats.Preemptions)
		}
	}
}

func TestBackendEquivalenceSparseGet(t *testing.T) {
	const quantum = 192 * 1024
	got := make(map[string]eqOutcome)
	for name, fs := range eqBackends(t) {
		f, size := sparseFile(t, fs, "/f", 42)
		sink := &collectWriter{}
		tr := &Transfer{Class: "eq", Size: size, Src: storage.NewSectionReader(f, 0, size), Dst: sink}
		stats, cls, res := runManaged(t, tr, quantum)
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		f.Close()
		got[name] = eqOutcome{out: sink.bytes(), stats: stats, cls: cls, res: res}
	}
	if len(got["memfs"].out) == 0 {
		t.Fatal("no bytes moved")
	}
	compareOutcomes(t, got)
}

func TestBackendEquivalenceSparsePut(t *testing.T) {
	const quantum = 128 * 1024
	data := make([]byte, 900_000)
	rand.New(rand.NewSource(7)).Read(data)
	const putOff = 150_000 // sparse: hole below the write

	got := make(map[string]eqOutcome)
	for name, fs := range eqBackends(t) {
		f, err := fs.Create("/out", "u")
		if err != nil {
			t.Fatal(err)
		}
		tr := &Transfer{
			Class: "eq", Size: int64(len(data)),
			Src: bytes.NewReader(data),
			Dst: storage.NewOffsetWriter(f, putOff),
		}
		stats, cls, res := runManaged(t, tr, quantum)
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		out := make([]byte, f.Size())
		if _, err := f.ReadAt(out, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		f.Close()
		got[name] = eqOutcome{out: out, stats: stats, cls: cls, res: res}
	}
	// The hole below putOff must come back as zeros from both stores.
	for i := 0; i < putOff; i++ {
		if got["memfs"].out[i] != 0 {
			t.Fatalf("memfs hole byte %d nonzero", i)
		}
	}
	compareOutcomes(t, got)
}

// TestBackendEquivalenceCancellation: the sink dies after a
// chunk-aligned budget; both stores must charge exactly the delivered
// bytes and surface the same error.
func TestBackendEquivalenceCancellation(t *testing.T) {
	const total = 16 * 64 * 1024
	const budget = 5 * 64 * 1024
	boom := errors.New("connection reset")

	got := make(map[string]eqOutcome)
	for name, fs := range eqBackends(t) {
		f, err := fs.Create("/c", "u")
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, total)
		rand.New(rand.NewSource(5)).Read(data)
		f.WriteAt(data, 0)

		sink := &failAfterWriter{budget: budget, err: boom}
		tr := &Transfer{Class: "eq", Size: total, Src: storage.NewSectionReader(f, 0, total), Dst: sink}
		stats, cls, res := runManaged(t, tr, 0)
		if !errors.Is(res.Err, boom) {
			t.Fatalf("%s: err = %v, want boom", name, res.Err)
		}
		if sink.got.Len() != budget {
			t.Fatalf("%s: sink received %d, want %d", name, sink.got.Len(), budget)
		}
		f.Close()
		got[name] = eqOutcome{out: append([]byte(nil), sink.got.Bytes()...), stats: stats, cls: cls, res: res}
	}
	compareOutcomes(t, got)
}

// TestBackendEquivalenceTruncationRace runs the reader-vs-truncator
// race against each store: the invariants (clean end or
// ErrUnexpectedEOF; charges never exceed delivery) must hold over the
// disk store's read-only mapping, clamped to the logical size under
// the file lock, exactly as over MemFS extent recycling, and the race
// detector gets both lock disciplines.
func TestBackendEquivalenceTruncationRace(t *testing.T) {
	const size = 32 * 64 * 1024
	for name, fs := range eqBackends(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fs.Create("/r", "u")
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, size)
			f.WriteAt(data, 0)

			w, err := fs.OpenRW("/r")
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					w.Truncate(int64(size / 2))
					w.WriteAt(data[:4096], int64(size/2)-2048)
					w.Truncate(size)
				}
			}()

			sink := &collectWriter{}
			tr := &Transfer{Class: "eq", Size: size, Src: storage.NewSectionReader(f, 0, size), Dst: sink}
			_, _, res := runManaged(t, tr, 64*1024)
			close(stop)
			wg.Wait()
			w.Close()
			f.Close()

			if res.Err != nil && !errors.Is(res.Err, io.ErrUnexpectedEOF) {
				t.Fatalf("unexpected error %v", res.Err)
			}
			if delivered := int64(len(sink.bytes())); res.Bytes > delivered {
				t.Fatalf("charged %d > delivered %d", res.Bytes, delivered)
			}
		})
	}
}

// TestBackendEquivalenceStriped drives striped GETs at widths 1/2/4
// through both stores: stripe sub-pumps hit the disk file's handoff
// path concurrently, and every width must match the memfs reference
// byte-for-byte and charge-for-charge.
func TestBackendEquivalenceStriped(t *testing.T) {
	const size = 10*64*1024 + 13
	const quantum = 192 * 1024
	data := make([]byte, size)
	rand.New(rand.NewSource(11)).Read(data)

	for _, width := range []int{1, 2, 4} {
		got := make(map[string]eqOutcome)
		for name, fs := range eqBackends(t) {
			f, err := fs.Create("/striped", "u")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			var tr *Transfer
			out := make([]byte, size)
			if width <= 1 {
				sink := &collectWriter{}
				tr = &Transfer{Class: "eq", Path: "/striped", Size: size,
					Src: storage.NewSectionReader(f, 0, size), Dst: sink}
				stats, cls, res := runManaged(t, tr, quantum)
				copy(out, sink.bytes())
				got[name] = eqOutcome{out: out, stats: stats, cls: cls, res: res}
			} else {
				tr = stripeTransfer(f, size, width, out)
				stats, cls, res := runManaged(t, tr, quantum)
				got[name] = eqOutcome{out: out, stats: stats, cls: cls, res: res}
			}
			if got[name].res.Err != nil {
				t.Fatalf("%s width %d: %v", name, width, got[name].res.Err)
			}
			f.Close()
		}
		if !bytes.Equal(got["memfs"].out, data) {
			t.Fatalf("width %d: memfs reference output corrupt", width)
		}
		compareOutcomes(t, got)
	}
}
