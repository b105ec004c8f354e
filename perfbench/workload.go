package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// proto names a client session kind.
type proto int

const (
	pChirp proto = iota
	pHTTP
	pGridFTP
	pNFS
	nProtos
)

var protoNames = [nProtos]string{"chirp", "http", "gridftp", "nfs"}

// opKind is one client operation.
type opKind int

const (
	opGet opKind = iota
	opPut
	opStat
	opList
	opRemove
)

// op is one drawn operation: what to do, over which protocol, to which
// file (an index into the workload's file table).
type op struct {
	kind  opKind
	proto proto
	file  int
}

// fileSpec is one file of a workload's namespace.
type fileSpec struct {
	path string
	dir  string // parent directory path
	name string // base name (NFS lookups)
	size int64
	// seeded files exist after set-up; scratch files are created and
	// removed by the run itself.
	seeded bool
	// names are where versions with even and odd generations live: both
	// path, or two fresh names when the workload replaces files.
	names [2]string
}

// at is the name version gen of the file is stored under.
func (f *fileSpec) at(gen uint32) string { return f.names[gen&1] }

// fileState is the harness's model of one file: its current version
// (and whether it exists), guarded so a GET never overlaps a PUT of the
// same file — the appliance does not promise atomic replacement, and
// the benchmark checks bytes, not races.
type fileState struct {
	mu     sync.RWMutex
	gen    atomic.Uint32
	exists atomic.Bool
}

// opClass is one kind of op in a workload's mix. Its weight sets its
// share of the ops drawn.
type opClass struct {
	name   string
	weight int
	pick   func(d *drawer) op
}

// drawer is one client's random stream over a workload's mix.
type drawer struct {
	r      *rand.Rand
	zipf   *rand.Zipf // file popularity, when the workload has one
	client int
	n      int // ops drawn, for rotating mixes
}

// workload is one traffic mix.
type workload struct {
	name    string
	localFS bool
	// replace makes a PUT of an existing file store the new version
	// under a fresh name and then remove the old one, so no PUT
	// truncates a file.
	replace bool
	dirs    []string // created before seeding, parents first
	files   []fileSpec
	state   []fileState
	warmup  int // untimed ops per client before the first timed op
	mix     []opClass
	// rotate cycles through the mix in order instead of drawing by
	// weight.
	rotate bool
	zipfN  int // files under Zipf popularity (0: none)
	// scratch maps (client, slot) to a file index for small-ops.
	scratch [][]int
}

func (w *workload) addFile(dir, name string, size int64, seeded bool) int {
	f := fileSpec{path: dir + "/" + name, dir: dir, name: name, size: size, seeded: seeded}
	f.names = [2]string{f.path, f.path}
	if w.replace {
		f.names = [2]string{f.path + ".a", f.path + ".b"}
	}
	w.files = append(w.files, f)
	return len(w.files) - 1
}

// clientRNG is the per-client random stream: the same seed gives every
// client the same op sequence on every run.
func clientRNG(seed uint64, client int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(client)+1))
}

// newDrawer starts client's stream over the mix.
func (w *workload) newDrawer(seed uint64, client int) *drawer {
	d := &drawer{r: clientRNG(seed, client), client: client, n: client}
	if w.zipfN > 0 {
		d.zipf = rand.NewZipf(d.r, 1.1, 1, uint64(w.zipfN-1))
	}
	return d
}

// newDraw returns client's op stream.
func (w *workload) newDraw(seed uint64, client int) func() op {
	d := w.newDrawer(seed, client)
	total := 0
	for _, c := range w.mix {
		total += c.weight
	}
	return func() op {
		if w.rotate {
			d.n++
			return w.mix[d.n%len(w.mix)].pick(d)
		}
		x := d.r.IntN(total)
		for _, c := range w.mix {
			if x < c.weight {
				return c.pick(d)
			}
			x -= c.weight
		}
		panic("unreachable")
	}
}

const nClients = 2

var workloadNames = []string{"bulk-get", "small-ops", "localfs-mixed"}

func newWorkload(name string, seed uint64) (*workload, error) {
	w := &workload{name: name}
	switch name {
	case "bulk-get":
		// 16 × 16 MB on MemFS, GETs rotating chirp → HTTP → GridFTP
		// MODE E W=2: nearly all work is in the data plane.
		w.dirs = []string{"/bulk"}
		for i := 0; i < 16; i++ {
			w.addFile("/bulk", fmt.Sprintf("f%02d", i), 16<<20, true)
		}
		w.warmup = 3
		w.rotate = true
		get := func(p proto) func(d *drawer) op {
			return func(d *drawer) op { return op{kind: opGet, proto: p, file: d.r.IntN(16)} }
		}
		w.mix = []opClass{
			{"chirp get", 1, get(pChirp)},
			{"http get", 1, get(pHTTP)},
			{"gridftp get", 1, get(pGridFTP)},
		}
	case "small-ops":
		// 4 KB files on MemFS: chirp put/stat/get/list/remove, HTTP GET,
		// and NFS lookup + read of 64 KB files (9 RPCs each): nearly all
		// work is per-request cost. The weights (percent) are the
		// benchmark's choice: each protocol sends about a third of the
		// requests the dispatcher sees (chirp 48, HTTP 47, NFS 5 × 9).
		// README.md gives each class's measured share of time, CPU and
		// allocation.
		w.dirs = []string{"/small", "/nfs", "/scratch"}
		for d := 0; d < 16; d++ {
			w.dirs = append(w.dirs, fmt.Sprintf("/small/d%02d", d))
		}
		for d := 0; d < 16; d++ {
			for f := 0; f < 16; f++ {
				w.addFile(fmt.Sprintf("/small/d%02d", d), fmt.Sprintf("f%02d", f), 4<<10, true)
			}
		}
		nfsBase := len(w.files)
		for f := 0; f < 32; f++ {
			w.addFile("/nfs", fmt.Sprintf("f%02d", f), 64<<10, true)
		}
		w.scratch = make([][]int, nClients)
		for c := 0; c < nClients; c++ {
			dir := fmt.Sprintf("/scratch/c%d", c)
			w.dirs = append(w.dirs, dir)
			for s := 0; s < 8; s++ {
				w.scratch[c] = append(w.scratch[c], w.addFile(dir, fmt.Sprintf("s%d", s), 4<<10, false))
			}
		}
		w.warmup = 200
		small := func(k opKind, p proto) func(d *drawer) op {
			return func(d *drawer) op { return op{kind: k, proto: p, file: d.r.IntN(256)} }
		}
		slot := func(k opKind) func(d *drawer) op {
			return func(d *drawer) op {
				slots := w.scratch[d.client]
				return op{kind: k, proto: pChirp, file: slots[d.r.IntN(len(slots))]}
			}
		}
		w.mix = []opClass{
			{"chirp get", 16, small(opGet, pChirp)},
			{"chirp stat", 12, small(opStat, pChirp)},
			{"chirp list", 4, small(opList, pChirp)},
			{"chirp put", 10, slot(opPut)},
			{"chirp remove", 6, slot(opRemove)},
			{"http get", 47, small(opGet, pHTTP)},
			{"nfs read", 5, func(d *drawer) op {
				return op{kind: opGet, proto: pNFS, file: nfsBase + d.r.IntN(32)}
			}},
		}
	case "localfs-mixed":
		// 256 × 1 MB on LocalFS, Zipf file choice, 70% GET (chirp,
		// HTTP) and 30% replacing PUT (chirp, GridFTP STOR), one lot.
		// A PUT stores the new version under a fresh name and removes
		// the old one: truncating a file on a disk filesystem starts
		// writeback when it is closed, and the run would time the disk.
		w.localFS = true
		w.replace = true
		w.dirs = []string{"/lfs"}
		for i := 0; i < 256; i++ {
			w.addFile("/lfs", fmt.Sprintf("f%03d", i), 1<<20, true)
		}
		w.zipfN = 256
		// The popularity ranking of files is itself seeded.
		rank := rand.New(rand.NewPCG(seed, 0x7a697066)).Perm(256)
		w.warmup = 32
		zipf := func(k opKind, p proto) func(d *drawer) op {
			return func(d *drawer) op { return op{kind: k, proto: p, file: rank[d.zipf.Uint64()]} }
		}
		w.mix = []opClass{
			{"chirp get", 35, zipf(opGet, pChirp)},
			{"http get", 35, zipf(opGet, pHTTP)},
			{"chirp put", 15, zipf(opPut, pChirp)},
			{"gridftp put", 15, zipf(opPut, pGridFTP)},
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	w.state = make([]fileState, len(w.files))
	return w, nil
}

// liveBytes is the sum of the sizes of every file the model says
// exists.
func (w *workload) liveBytes() int64 {
	var n int64
	for i := range w.files {
		if w.state[i].exists.Load() {
			n += w.files[i].size
		}
	}
	return n
}

// reset returns the model to "nothing seeded yet".
func (w *workload) reset() {
	for i := range w.state {
		w.state[i].gen.Store(0)
		w.state[i].exists.Store(false)
	}
}
