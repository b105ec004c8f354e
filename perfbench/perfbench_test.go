package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"nest/internal/obs"
	"nest/internal/protocol"
	"nest/internal/sim"
	"nest/internal/storage"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[n-1-i] = float64(i + 1) // reversed: percentile must sort
	}
	return s
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // 10 samples above the 990th
		{999, 0.99, 990, false}, // only 9 above
		{1010, 0.99, 1000, true},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = (%v, %v), want (%v, %v)", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if p := pctOf(seq(19), 0.5); p.OK || p.Value != 0 || p.Samples != 19 {
		t.Errorf("unreportable percentile = %+v, want value 0 with its 19 samples", p)
	}
}

// Request self time is the request span minus its sched.wait and data
// children, whether the children arrive in the same drain or an
// earlier one; stripes count only under GETs; sampled-out control ops
// (zero duration) are not timed.
func TestSpanSelfTime(t *testing.T) {
	sc := &spanCollector{
		prev: map[uint64]struct{}{}, cur: map[uint64]struct{}{},
		children: map[uint64]childAcc{}, dataOwner: map[uint64]childOf{},
	}
	ms := time.Millisecond
	// GET 1: children and request in one batch, request first (a
	// snapshot orders by start time).
	sc.add([]obs.Span{
		{ID: 1, Stage: "request", Op: "get", Start: 0, Dur: 10 * ms},
		{ID: 2, Parent: 1, Stage: "sched.wait", Start: 1, Dur: 2 * ms},
		{ID: 3, Parent: 1, Stage: "data", Start: 2, Dur: 5 * ms},
		{ID: 4, Parent: 3, Stage: "stripe", Start: 2, Dur: 5 * ms},
		{ID: 5, Parent: 3, Stage: "stripe", Start: 2, Dur: 5 * ms},
	})
	// PUT 6: children in one drain, the request in the next; its stripe
	// is not a GET stripe.
	sc.add([]obs.Span{
		{ID: 7, Parent: 6, Stage: "sched.wait", Start: 11, Dur: 1 * ms},
		{ID: 8, Parent: 6, Stage: "data", Start: 12, Dur: 1 * ms},
		{ID: 9, Parent: 8, Stage: "stripe", Start: 12, Dur: 1 * ms},
	})
	sc.add([]obs.Span{
		{ID: 6, Stage: "request", Op: "put", Start: 10, Dur: 3 * ms},
		{ID: 10, Stage: "request", Op: "stat", Start: 20, Dur: 0},
		{ID: 11, Stage: "request", Op: "stat", Start: 21, Dur: 40 * time.Microsecond},
		// A GET whose children were lost is not timed.
		{ID: 12, Stage: "request", Op: "get", Start: 22, Dur: 1 * ms},
	})
	st := sc.st
	if want := []float64{3000, 1000}; fmt.Sprint(st.requestSelfUs) != fmt.Sprint(want) {
		t.Errorf("request self µs = %v, want %v", st.requestSelfUs, want)
	}
	if fmt.Sprint(st.controlUs) != "[40]" {
		t.Errorf("control µs = %v, want [40]", st.controlUs)
	}
	if st.stripes != 2 || st.getRequests != 1 {
		t.Errorf("stripes/getRequests = %d/%d, want 2/1", st.stripes, st.getRequests)
	}
	if got := selfTime(ms, 2*ms); got != 0 {
		t.Errorf("selfTime floors at zero, got %v", got)
	}
}

// busyServer accepts connections and answers each with reply, as the
// appliance's refusal path does, then closes.
func busyServer(t *testing.T, reply string) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				c.SetDeadline(time.Now().Add(5 * time.Second))
				if reply[0] != '-' { // HTTP: wait for the request head
					buf := make([]byte, 512)
					c.Read(buf)
				}
				io.WriteString(c, reply)
			}()
		}
	}()
	return ln.Addr().String()
}

// Refusals and sheds are failed ops: they count in fail_frac.
func TestFailFracCountsRefusals(t *testing.T) {
	w, err := newWorkload("small-ops", 1)
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[string]string{
		"chirp": busyServer(t, fmt.Sprintf("-ERR %d server busy\n", protocol.CodeBusy)),
		"http":  busyServer(t, "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 5\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"),
	}
	_, cred := newCA()
	cl := newClient(0, w, newContent(1), addrs, cred, 1)
	ops := []op{
		{kind: opStat, proto: pChirp, file: 0},
		{kind: opGet, proto: pHTTP, file: 0},
	}
	i := 0
	cl.draw = func() op { o := ops[i%len(ops)]; i++; return o }
	for j := 0; j < 4; j++ {
		cl.step()
	}
	tl := cl.tally
	if tl.attempted != 4 || tl.failed != 4 || tl.refused != 4 {
		t.Fatalf("tally = %+v, want 4 attempted, 4 failed, 4 refused (first error: %v)", tl, cl.firstErr)
	}
	if f := failFrac(tl.attempted, tl.failed); f != 1 {
		t.Errorf("fail_frac = %v, want 1", f)
	}
	if f := failFrac(0, 0); f != 0 {
		t.Errorf("fail_frac of nothing = %v, want 0", f)
	}
	if !errors.Is(cl.firstErr, errRefused) {
		t.Errorf("first error %v is not a refusal", cl.firstErr)
	}
}

// plainFile is a storage.File with neither extent-handoff capability.
type plainFile struct{ storage.File }

// The timing wrapper exposes exactly the extent-handoff capabilities of
// the file it wraps, on both backends, and moves the same bytes.
func TestWrapperForwardsRangeCapabilities(t *testing.T) {
	local, err := storage.NewLocalFS(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]storage.FS{
		"memfs":   storage.NewMemFS(sim.NewRealClock(), 1<<30),
		"localfs": local,
	}
	for name, backend := range backends {
		t.Run(name, func(t *testing.T) {
			lt := newLayerTimes()
			fs := &timedFS{inner: backend, lt: lt}
			f, err := fs.Create("/f", "u")
			if err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte("nest-extent "), 20000) // > 3 extents
			rf, ok := f.(storage.RangeReaderFrom)
			if !ok {
				t.Fatalf("%T hides RangeReaderFrom", f)
			}
			var moved int64
			for src := bytes.NewReader(payload); moved < int64(len(payload)); {
				n, err := rf.ReadRangeFrom(src, moved, storage.ExtentSize)
				moved += n
				if err != nil && err != io.EOF {
					t.Fatal(err)
				}
			}
			f.Close()
			for _, open := range []func(string) (storage.File, error){fs.Open, fs.OpenRW} {
				g, err := open("/f")
				if err != nil {
					t.Fatal(err)
				}
				wt, ok := g.(storage.RangeWriterTo)
				if !ok {
					t.Fatalf("%T hides RangeWriterTo", g)
				}
				if _, ok := g.(storage.RangeReaderFrom); !ok {
					t.Fatalf("%T hides RangeReaderFrom", g)
				}
				var out bytes.Buffer
				if _, err := wt.WriteRangeTo(&out, 0, int64(len(payload))); err != nil && err != io.EOF {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Bytes(), payload) {
					t.Fatalf("read back %d bytes, want the %d written", out.Len(), len(payload))
				}
				g.Close()
			}
			if lt.sinkBytes.Load() != 2*int64(len(payload)) || lt.sourceBytes.Load() != int64(len(payload)) {
				t.Errorf("sink/source bytes = %d/%d", lt.sinkBytes.Load(), lt.sourceBytes.Load())
			}
			if len(lt.meta.values()) != 3 {
				t.Errorf("meta samples = %d, want 3 (create, open, openrw)", len(lt.meta.values()))
			}
		})
	}
	// A file without the capabilities stays without them.
	mem := storage.NewMemFS(sim.NewRealClock(), 1<<20)
	f, _ := mem.Create("/p", "u")
	g, err := wrapFile(plainFile{f}, nil, newLayerTimes())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.(storage.RangeWriterTo); ok {
		t.Error("wrapper added RangeWriterTo")
	}
	if _, ok := g.(storage.RangeReaderFrom); ok {
		t.Error("wrapper added RangeReaderFrom")
	}
}

// The verifying sink accepts exactly the expected version and flags a
// chunk delivered at the wrong offset.
func TestVerifySink(t *testing.T) {
	c := newContent(7)
	size := int64(3*storage.ExtentSize + 123)
	want := make([]byte, size)
	src := patternSource{c: c}
	src.reset(c.shift(4, 2), size)
	if _, err := io.ReadFull(&src, want); err != nil {
		t.Fatal(err)
	}
	v := verifySink{c: c}
	v.reset(c.shift(4, 2), size)
	io.Copy(&v, bytes.NewReader(want))
	if !v.ok() {
		t.Fatal("exact content rejected")
	}
	swapped := append(append([]byte{}, want[storage.ExtentSize:2*storage.ExtentSize]...), want[storage.ExtentSize:]...)
	v.reset(c.shift(4, 2), size)
	v.Write(swapped)
	if v.ok() {
		t.Fatal("misplaced extent accepted")
	}
	v.reset(c.shift(4, 3), size)
	v.Write(want)
	if v.ok() {
		t.Fatal("other version accepted")
	}
}

// A weighted mix draws each class in proportion to its weight; a
// rotating mix cycles through its classes in order.
func TestMixDrawsByWeight(t *testing.T) {
	w, err := newWorkload("small-ops", 1)
	if err != nil {
		t.Fatal(err)
	}
	class := func(o op) string {
		for _, c := range w.mix {
			probe := c.pick(w.newDrawer(9, 0))
			if probe.kind == o.kind && probe.proto == o.proto {
				return c.name
			}
		}
		return "?"
	}
	const n = 200000
	got := map[string]int{}
	draw := w.newDraw(1, 1)
	for i := 0; i < n; i++ {
		got[class(draw())]++
	}
	for _, c := range w.mix {
		share := float64(got[c.name]) / n
		if want := float64(c.weight) / 100; share < want-0.005 || share > want+0.005 {
			t.Errorf("%s drawn %.4f of the time, want %.2f", c.name, share, want)
		}
	}

	b, err := newWorkload("bulk-get", 1)
	if err != nil {
		t.Fatal(err)
	}
	draw = b.newDraw(1, 0)
	for i := 0; i < 9; i++ {
		if o, want := draw(), proto((i+1)%3); o.proto != want {
			t.Fatalf("op %d over %s, want %s", i, protoNames[o.proto], protoNames[want])
		}
	}
}

// On a replacing workload a PUT of an existing file stores the new
// version under the file's other name and removes the old one: no PUT
// truncates a file, and the gate finds the namespace and the lot as the
// model has them.
func TestReplaceStoresFreshName(t *testing.T) {
	w, err := newWorkload("localfs-mixed", 1)
	if err != nil {
		t.Fatal(err)
	}
	ca, cred := newCA()
	b := &bench{w: w, c: newContent(1), ca: ca, cred: cred, seed: 1}
	a, err := startCore(ca, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cl := newClient(0, w, b.c, a.addrs, cred, 1)
	defer teardown(a, []*client{cl})
	c, err := cl.chirpSession()
	if err != nil {
		t.Fatal(err)
	}
	lot, err := c.LotCreate(lotSize, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cl.lotID = lot.ID
	if err := c.Mkdir("/lfs"); err != nil {
		t.Fatal(err)
	}
	f := &w.files[0]
	for gen, p := range []proto{pChirp, pGridFTP, pChirp} {
		if _, err := cl.exec(op{kind: opPut, proto: p, file: 0}); err != nil {
			t.Fatalf("put %d over %s: %v", gen, protoNames[p], err)
		}
		if _, err := cl.exec(op{kind: opGet, proto: pHTTP, file: 0}); err != nil {
			t.Fatalf("get after put %d: %v", gen, err)
		}
		if _, err := c.Stat(f.at(uint32(gen))); err != nil {
			t.Errorf("version %d not at %s: %v", gen, f.at(uint32(gen)), err)
		}
		if _, err := c.Stat(f.at(uint32(gen + 1))); err == nil {
			t.Errorf("after put %d, %s still exists", gen, f.at(uint32(gen+1)))
		}
	}
	if got := w.state[0].gen.Load(); got != 2 {
		t.Errorf("model generation %d, want 2", got)
	}
	if problems := b.gate(a, cl); len(problems) > 0 {
		t.Errorf("gate: %v", problems)
	}
}

// The class profile measures every class of the mix without failures,
// and its shares of each figure add up to the whole.
func TestClassProfile(t *testing.T) {
	w, err := newWorkload("small-ops", 3)
	if err != nil {
		t.Fatal(err)
	}
	ca, cred := newCA()
	b := &bench{w: w, c: newContent(3), ca: ca, cred: cred, seed: 3}
	a, clients, _, err := b.setup(startCore)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown(a, clients)
	prof, problems := b.profile(clients[0])
	if len(problems) > 0 {
		t.Fatalf("profile: %v", problems)
	}
	if len(prof.Classes) != len(w.mix) {
		t.Fatalf("%d classes profiled, want %d", len(prof.Classes), len(w.mix))
	}
	var weight, timeShare, cpuShare, allocShare float64
	for _, c := range prof.Classes {
		if c.Ops < profileMinOps || c.UsPerOp <= 0 {
			t.Errorf("class %s: %d ops, %.1f us/op", c.Class, c.Ops, c.UsPerOp)
		}
		weight += c.Weight
		timeShare += c.TimeShare
		cpuShare += c.CPUShare
		allocShare += c.AllocShare
	}
	for name, s := range map[string]float64{"weight": weight, "time": timeShare, "cpu": cpuShare, "alloc": allocShare} {
		if s < 0.999 || s > 1.001 {
			t.Errorf("%s shares add up to %v, want 1", name, s)
		}
	}
	if problems := b.gate(a, clients[0]); len(problems) > 0 {
		t.Errorf("gate after the profile: %v", problems)
	}
}
