// Command perfbench is the appliance benchmark: it runs a real NeST
// in-process, drives it from closed-loop clients over loopback TCP
// through the public protocol clients, checks every byte and every
// accounting invariant, and prints the end-to-end metrics (or, traced,
// the per-layer split) as one JSON object on the last line of stdout.
//
//	perfbench --workload bulk-get --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"nest/internal/bufpool"
	"nest/internal/chirp"
	"nest/internal/gsi"
	"nest/internal/protocol"
	"nest/internal/storage"
	"nest/internal/transfer"
)

const (
	mb      = 1 << 20
	lotSize = 512 << 20
	// setupRuns is how many times a run sets up, for the median set-up
	// time; only the last appliance is measured.
	setupRuns = 7
	// spanDrainEvery bounds how long the dispatcher's 1024-span ring
	// runs between drains in the traced phase.
	spanDrainEvery = 5 * time.Millisecond
)

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Uint64("seed", 1, "seed for file contents, file choice and op order")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer split")
		workdir  = flag.String("workdir", ".perfbench/work", "directory for LocalFS data")
	)
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state shared by the phases of one run.
type bench struct {
	w       *workload
	c       *content
	ca      *gsi.CA
	cred    *gsi.Credential
	seed    uint64
	workdir string
	nsetup  int
}

func run(name string, seed uint64, dur time.Duration, traced bool, workdir string) error {
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	if dur <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	ca, cred := newCA()
	b := &bench{w: w, c: newContent(seed), ca: ca, cred: cred, seed: seed, workdir: workdir}
	report := map[string]any{
		"workload":    name,
		"seed":        seed,
		"seconds":     dur.Seconds(),
		"trace":       traced,
		"fingerprint": fingerprint(workdir),
	}
	var res result
	if traced {
		res, err = b.runTraced(dur, report)
	} else {
		res, err = b.runUntraced(dur, report)
	}
	if err != nil {
		return err
	}
	line, _ := json.Marshal(map[string]any{"report": report})
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	return nil
}

// runUntraced measures the appliance exactly as core.New builds it.
func (b *bench) runUntraced(dur time.Duration, report map[string]any) (result, error) {
	var setups []float64
	var a *appliance
	var clients []*client
	for i := 0; i < setupRuns; i++ {
		app, cls, d, err := b.setup(startCore)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			teardown(app, cls)
			continue
		}
		a, clients = app, cls
	}
	ph := b.measure(a, clients, dur, false)
	prof, problems := b.profile(clients[0])
	ph.problems = append(problems, b.gate(a, clients[0])...)
	teardown(a, clients)

	setupMedian, _ := percentile(slices.Clone(setups), 0.5)
	var rus syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &rus)
	p50 := pctOf(slices.Clone(ph.lat), 0.5)
	m := map[string]metric{
		"get_MBps":        {ph.windowMedian(func(w window) float64 { return w.GetMBps }), "MB/s"},
		"ops_per_s":       {ph.windowMedian(func(w window) float64 { return w.OpsPerSec }), "1/s"},
		"op_p50_ms":       {p50.Value / 1e3, "ms"},
		"cpu_us_per_op":   {ph.windowMedian(func(w window) float64 { return w.CPUUsPerOp }), "us"},
		"alloc_KB_per_op": {ph.windowMedian(func(w window) float64 { return w.AllocKBPerOp }), "KB"},
		"max_rss_MB":      {float64(rus.Maxrss) / 1024, "MB"},
		"setup_s":         {setupMedian, "s"},
	}
	report["setup_s_samples"] = setups
	report["untraced"] = ph.summary()
	report["class_profile"] = prof
	return ph.result(m), nil
}

// runTraced measures the same workload twice — through core.New, then
// through the wrapped build with the dispatcher's spans drained — and
// reports the per-layer split plus the proof that tracing kept the
// path.
func (b *bench) runTraced(dur time.Duration, report map[string]any) (result, error) {
	half := dur / 2
	a, clients, _, err := b.setup(startCore)
	if err != nil {
		return result{}, err
	}
	plain := b.measure(a, clients, half, false)
	plain.problems = b.gate(a, clients[0])
	teardown(a, clients)

	a, clients, _, err = b.setup(startTraced)
	if err != nil {
		return result{}, err
	}
	tr := b.measure(a, clients, half, true)
	tr.problems = b.gate(a, clients[0])
	lt := a.layers
	teardown(a, clients)

	ops := float64(tr.ops())
	calls := tr.calls
	sp := tr.spans
	hand, pool := float64(tr.d.handoff), float64(tr.d.pooled)
	p99 := pctOf(slices.Clone(plain.lat), 0.99)
	m := map[string]metric{
		"put_MBps":  {plain.putMBps(), "MB/s"},
		"op_p99_ms": {p99.Value / 1e3, "ms"},
		"fail_frac": {failFrac(plain.t.attempted+tr.t.attempted, plain.failures()+tr.failures()), "ratio"},

		"chirp.get_us_p50":    {pctOf(calls.us[callChirpGet], 0.5).Value, "us"},
		"chirp.put_us_p50":    {pctOf(calls.us[callChirpPut], 0.5).Value, "us"},
		"chirp.stat_us_p50":   {pctOf(calls.us[callChirpStat], 0.5).Value, "us"},
		"httpx.get_us_p50":    {pctOf(calls.us[callHTTPGet], 0.5).Value, "us"},
		"gridftp.retr_us_p50": {pctOf(calls.us[callGridFTPRetr], 0.5).Value, "us"},
		"nfs.read_rpc_us_p50": {pctOf(calls.us[callNFSReadRPC], 0.5).Value, "us"},
		"nfs.rpcs_per_MB":     {ratio(float64(calls.nfsRPCs), float64(calls.nfsBytes)/mb), "count"},

		"connmgr.parks_per_op":   {ratio(float64(tr.d.parks), ops), "count"},
		"connmgr.resumes_per_op": {ratio(float64(tr.d.resumes), ops), "count"},
		"connmgr.shed":           {float64(tr.d.shed), "count"},
		"connmgr.refused":        {float64(tr.d.refused), "count"},

		"dispatch.request_self_us_p50": {pctOf(sp.requestSelfUs, 0.5).Value, "us"},
		"dispatch.control_us_p50":      {pctOf(sp.controlUs, 0.5).Value, "us"},
		"dispatch.span_drops":          {float64(tr.d.spanDrops), "count"},

		"transfer.wait_us_p50":     {pctOf(sp.waitUs, 0.5).Value, "us"},
		"transfer.data_us_p50":     {pctOf(sp.dataUs, 0.5).Value, "us"},
		"transfer.stripes_per_get": {ratio(float64(sp.stripes), float64(sp.getRequests)), "count"},

		"storage.meta_us_p50":            {pctOf(lt.meta.values(), 0.5).Value, "us"},
		"storage.self_s_per_GB":          {ratio(float64(lt.storageNs.Load()), float64(lt.storageBytes.Load())), "s/GB"},
		"protocol.sink_s_per_GB":         {ratio(float64(lt.sinkNs.Load()), float64(lt.sinkBytes.Load())), "s/GB"},
		"protocol.source_s_per_GB":       {ratio(float64(lt.sourceNs.Load()), float64(lt.sourceBytes.Load())), "s/GB"},
		"storage.handoff_share":          {ratio(hand, hand+pool), "ratio"},
		"storage.localfs_fd_hit_ratio":   {ratio(float64(tr.d.fdHits), float64(tr.d.fdHits+tr.d.fdMisses)), "ratio"},
		"storage.localfs_pwrites_per_op": {ratio(float64(tr.d.pwrites), ops), "count"},

		"lots.charges_per_put": {ratio(float64(tr.d.charges), float64(tr.t.puts)), "count"},
		"lots.rejects":         {float64(tr.d.chargeRejects), "count"},

		"bufpool.gets_per_op": {ratio(float64(tr.d.poolGets), ops), "count"},
		"bufpool.miss_ratio":  {ratio(float64(tr.d.poolMisses), float64(tr.d.poolGets)), "ratio"},
		"runtime.gc_per_s":    {float64(tr.d.numGC) / tr.elapsed.Seconds(), "1/s"},
		"runtime.gc_pause_ms": {ratio(float64(tr.d.pauseNs)/1e6, float64(tr.d.numGC)), "ms"},
	}
	eq := equivalence(plain, tr)
	match := 0.0
	if len(eq.Deviations) == 0 {
		match = 1
	}
	m["equiv.path_match"] = metric{match, "bool"}
	opsRate := func(w window) float64 { return w.OpsPerSec }
	base := plain.windowMedian(opsRate)
	m["trace.overhead_pct"] = metric{100 * ratio(base-tr.windowMedian(opsRate), base), "%"}

	report["untraced"] = plain.summary()
	traced := tr.summary()
	traced["samples"] = map[string]int{
		"chirp.get": len(calls.us[callChirpGet]), "chirp.put": len(calls.us[callChirpPut]),
		"chirp.stat": len(calls.us[callChirpStat]), "httpx.get": len(calls.us[callHTTPGet]),
		"gridftp.retr": len(calls.us[callGridFTPRetr]), "nfs.read_rpc": len(calls.us[callNFSReadRPC]),
		"dispatch.request_self": len(sp.requestSelfUs), "dispatch.control": len(sp.controlUs),
		"transfer.wait": len(sp.waitUs), "transfer.data": len(sp.dataUs),
		"storage.meta": len(lt.meta.values()), "spans_captured": int(sp.spans),
		"op_p99_untraced": p99.Samples,
	}
	report["traced"] = traced
	report["equivalence"] = eq

	// Both phases must be clean, and tracing must not have changed the
	// path, for the run to count as correct.
	var res result
	res.Metrics = m
	res.Attempted = plain.t.attempted + tr.t.attempted
	res.Failed = plain.failures() + tr.failures()
	res.Correct = res.Failed == 0 && match == 1
	return res, nil
}

// setup builds one appliance and brings the workload to its first
// timed op: construction, lot, directories, seeding the file set over
// chirp from both clients, and the warm-up ops. It reports the time
// all of that took.
func (b *bench) setup(start func(*gsi.CA, string) (*appliance, error)) (*appliance, []*client, time.Duration, error) {
	w := b.w
	w.reset()
	b.nsetup++
	dataDir := ""
	if w.localFS {
		dataDir = filepath.Join(b.workdir, fmt.Sprintf("data-%d-%d", os.Getpid(), b.nsetup))
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, nil, 0, err
		}
	}
	t0 := time.Now()
	a, err := start(b.ca, dataDir)
	if err != nil {
		return nil, nil, 0, err
	}
	clients := make([]*client, nClients)
	for i := range clients {
		clients[i] = newClient(i, w, b.c, a.addrs, b.cred, b.seed)
	}
	fail := func(err error) (*appliance, []*client, time.Duration, error) {
		teardown(a, clients)
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	c0, err := clients[0].chirpSession()
	if err != nil {
		return fail(err)
	}
	lot, err := c0.LotCreate(lotSize, time.Hour)
	if err != nil {
		return fail(err)
	}
	for _, d := range w.dirs {
		if err := c0.Mkdir(d); err != nil {
			return fail(fmt.Errorf("mkdir %s: %w", d, err))
		}
	}
	for _, cl := range clients {
		cl.lotID = lot.ID
	}
	err = eachClient(clients, func(cl *client) error {
		for i, f := range w.files {
			if f.seeded && i%nClients == cl.id {
				if _, err := cl.exec(op{kind: opPut, proto: pChirp, file: i}); err != nil {
					return fmt.Errorf("seed %s: %w", f.path, err)
				}
			}
		}
		return nil
	})
	if err == nil {
		err = eachClient(clients, func(cl *client) error { return cl.runN(w.warmup) })
	}
	if err != nil {
		return fail(err)
	}
	return a, clients, time.Since(t0), nil
}

// eachClient runs fn on every client concurrently.
func eachClient(clients []*client, fn func(*client) error) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(cl)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func teardown(a *appliance, clients []*client) {
	for _, cl := range clients {
		if cl != nil {
			cl.closeAll()
		}
	}
	a.shutdown()
	runtime.GC()
	debug.FreeOSMemory()
}

// counters is a snapshot of every cumulative counter a phase reports;
// diff turns two snapshots into the phase's deltas.
type counters struct {
	at                     time.Time
	cpuNs, allocBytes      int64
	numGC, pauseNs         int64
	parks, resumes         int64 // connmgr
	shed, refused          int64
	handoff, pooled        int64 // data-path chunks
	poolGets, poolMisses   int64 // bufpool
	fdHits, fdMisses       int64 // LocalFS fd cache
	pwrites                int64
	charges, chargeRejects int64 // lots
	spanDrops              int64
	protoOps               map[string]int64
}

func snapshot(a *appliance) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var rus syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &rus)
	conn := a.cm.Stats()
	bp := bufpool.Stats()
	lfs := storage.LocalFSStats()
	lot := a.lots.Stats()
	c := counters{
		at:    time.Now(),
		cpuNs: rus.Utime.Nano() + rus.Stime.Nano(), allocBytes: int64(ms.TotalAlloc),
		numGC: int64(ms.NumGC), pauseNs: int64(ms.PauseTotalNs),
		parks: conn.Parked, resumes: conn.Resumed, shed: conn.Shed, refused: conn.Refused,
		poolGets: bp.Gets, poolMisses: bp.Misses,
		fdHits: lfs.FDCacheHits, fdMisses: lfs.FDCacheMisses, pwrites: lfs.Pwrites,
		charges: lot.ChargeAdmits, chargeRejects: lot.ChargeRejects,
		spanDrops: a.disp.Tracer().Drops(),
		protoOps:  serverProtoOps(a),
	}
	c.handoff, c.pooled = transfer.DataPathStats()
	return c
}

func diff(a, b counters) counters {
	d := counters{
		at:    b.at,
		cpuNs: b.cpuNs - a.cpuNs, allocBytes: b.allocBytes - a.allocBytes,
		numGC: b.numGC - a.numGC, pauseNs: b.pauseNs - a.pauseNs,
		parks: b.parks - a.parks, resumes: b.resumes - a.resumes,
		shed: b.shed - a.shed, refused: b.refused - a.refused,
		handoff: b.handoff - a.handoff, pooled: b.pooled - a.pooled,
		poolGets: b.poolGets - a.poolGets, poolMisses: b.poolMisses - a.poolMisses,
		fdHits: b.fdHits - a.fdHits, fdMisses: b.fdMisses - a.fdMisses, pwrites: b.pwrites - a.pwrites,
		charges: b.charges - a.charges, chargeRejects: b.chargeRejects - a.chargeRejects,
		spanDrops: b.spanDrops - a.spanDrops,
		protoOps:  map[string]int64{},
	}
	for p, n := range b.protoOps {
		d.protoOps[p] = n - a.protoOps[p]
	}
	return d
}

// serverProtoOps reads the dispatcher's per-protocol request counters
// from its metrics exposition.
func serverProtoOps(a *appliance) map[string]int64 {
	out := map[string]int64{}
	for _, line := range strings.Split(a.disp.Obs().Text(), "\n") {
		const prefix = `nest_dispatch_op_total{proto="`
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		q := strings.IndexByte(rest, '"')
		sp := strings.LastIndexByte(rest, ' ')
		if q < 0 || sp < 0 {
			continue
		}
		n, err := strconv.ParseFloat(rest[sp+1:], 64)
		if err != nil {
			continue
		}
		out[rest[:q]] += int64(n)
	}
	return out
}

// phase is one measured stretch of closed-loop load.
type phase struct {
	elapsed   time.Duration
	t         tally
	lat       []float64
	d         counters
	calls     callSpans
	spans     spanStats
	problems  []string // correctness-gate findings
	firstErrs []string
	windows   []window
}

// windows is how many equal stretches a phase is cut into. Rates are
// reported as the median over the stretches, so a burst of outside
// load in one second does not move the figure of a whole run.
const windows = 20

// window is one stretch's rates.
type window struct {
	OpsPerSec    float64 `json:"ops_per_s"`
	GetMBps      float64 `json:"get_MBps"`
	CPUUsPerOp   float64 `json:"cpu_us_per_op"`
	AllocKBPerOp float64 `json:"alloc_KB_per_op"`
}

// mark is the state of the counters a window is measured between.
type mark struct {
	at       time.Time
	cpuNs    int64
	alloc    uint64
	ops, get int64
}

func markNow(clients []*client) mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var rus syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &rus)
	m := mark{at: time.Now(), cpuNs: rus.Utime.Nano() + rus.Stime.Nano(), alloc: ms.TotalAlloc}
	for _, cl := range clients {
		m.ops += cl.done.Load()
		m.get += cl.doneGet.Load()
	}
	return m
}

// sampleWindows cuts [start, start+dur) into windows and delivers their
// rates when the last one closes.
func sampleWindows(clients []*client, start time.Time, dur time.Duration) <-chan []window {
	out := make(chan []window, 1)
	for _, cl := range clients {
		cl.done.Store(0)
		cl.doneGet.Store(0)
	}
	prev := markNow(clients)
	go func() {
		var ws []window
		for i := 1; i <= windows; i++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(i) / windows)))
			cur := markNow(clients)
			ops := float64(cur.ops - prev.ops)
			secs := cur.at.Sub(prev.at).Seconds()
			ws = append(ws, window{
				OpsPerSec:    ops / secs,
				GetMBps:      float64(cur.get-prev.get) / mb / secs,
				CPUUsPerOp:   ratio(float64(cur.cpuNs-prev.cpuNs)/1e3, ops),
				AllocKBPerOp: ratio(float64(cur.alloc-prev.alloc)/1024, ops),
			})
			prev = cur
		}
		out <- ws
	}()
	return out
}

// windowMedian is the median of one rate over the phase's windows.
func (p *phase) windowMedian(rate func(window) float64) float64 {
	vals := make([]float64, len(p.windows))
	for i, w := range p.windows {
		vals[i] = rate(w)
	}
	v, _ := percentile(vals, 0.5)
	return v
}

func (p *phase) ops() int64 { return p.t.attempted - p.t.failed }

func (p *phase) opsPerSec() float64 { return float64(p.ops()) / p.elapsed.Seconds() }

func (p *phase) getMBps() float64 { return float64(p.t.getBytes) / mb / p.elapsed.Seconds() }

func (p *phase) putMBps() float64 { return float64(p.t.putBytes) / mb / p.elapsed.Seconds() }

// failures counts failed ops plus correctness-gate findings.
func (p *phase) failures() int64 { return p.t.failed + int64(len(p.problems)) }

func (p *phase) result(m map[string]metric) result {
	return result{
		Correct:   p.failures() == 0,
		Attempted: p.t.attempted,
		Failed:    p.failures(),
		Metrics:   m,
	}
}

// measure runs the closed loop for dur; the caller runs the
// correctness gate after it.
func (b *bench) measure(a *appliance, clients []*client, dur time.Duration, traced bool) *phase {
	for _, cl := range clients {
		cl.tally = tally{}
		cl.lat = make([]float64, 0, 1<<17) // no growth inside a 20 s run
		cl.firstErr = nil
		cl.spans = nil
		if traced {
			cl.spans = &callSpans{}
		}
	}
	var sc *spanCollector
	if traced {
		a.layers.reset()
		sc = startSpanCollector(a.disp.Tracer(), spanDrainEvery)
	}
	before := snapshot(a)
	deadline := time.Now().Add(dur)
	win := sampleWindows(clients, before.at, dur)
	eachClient(clients, func(cl *client) error {
		cl.runFor(deadline)
		return nil
	})
	after := snapshot(a)
	p := &phase{elapsed: after.at.Sub(before.at), d: diff(before, after), windows: <-win}
	if sc != nil {
		p.spans = sc.finish()
	}
	for _, cl := range clients {
		p.t.add(cl.tally)
		p.lat = append(p.lat, cl.lat...)
		if cl.firstErr != nil {
			p.firstErrs = append(p.firstErrs, cl.firstErr.Error())
		}
		if cl.spans != nil {
			for k := range cl.spans.us {
				p.calls.us[k] = append(p.calls.us[k], cl.spans.us[k]...)
			}
			p.calls.nfsRPCs += cl.spans.nfsRPCs
			p.calls.nfsBytes += cl.spans.nfsBytes
			cl.spans = nil
		}
	}
	return p
}

// gate is the post-run correctness check: every file reads back as the
// version the model expects (and removed files are gone), statfs free
// space is capacity minus the live bytes, and the lot is charged for
// exactly the live files and bytes.
func (b *bench) gate(a *appliance, cl *client) []string {
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	w := b.w
	live := map[string]bool{}
	gone := func(path string) {
		c, err := cl.chirpSession()
		if err == nil {
			_, err = c.Stat(path)
		}
		var ce *chirp.Error
		if err == nil {
			bad("%s exists after it was removed", path)
		} else if !errors.As(err, &ce) || ce.Code != protocol.CodeNotFound {
			bad("stat removed %s: %v", path, err)
		}
	}
	for i := range w.files {
		f := &w.files[i]
		gen := w.state[i].gen.Load()
		if f.at(gen) != f.at(gen+1) {
			gone(f.at(gen + 1)) // the replaced version
		}
		if !w.state[i].exists.Load() {
			gone(f.at(gen))
			continue
		}
		live[f.at(gen)] = true
		if _, err := cl.exec(op{kind: opGet, proto: pChirp, file: i}); err != nil {
			bad("read-back %s: %v", f.at(gen), err)
		}
	}
	want := w.liveBytes()
	c, err := cl.chirpSession()
	if err != nil {
		bad("gate session: %v", err)
		return problems
	}
	if ad, err := c.Statfs(); err != nil {
		bad("statfs: %v", err)
	} else if free, ok := ad.EvalAttr("FreeDisk", nil).IntVal(); !ok || free != capacity-want {
		bad("statfs FreeDisk %d, want capacity %d - live %d = %d", free, int64(capacity), want, capacity-want)
	}
	if lot, err := c.LotStatus(cl.lotID); err != nil {
		bad("lot status: %v", err)
	} else if lot.Used != want {
		bad("lot charged %d bytes, live files hold %d", lot.Used, want)
	}
	if info, err := a.lots.Lookup(cl.lotID); err != nil {
		bad("lot lookup: %v", err)
	} else {
		owned := map[string]bool{}
		for _, p := range info.Files {
			owned[p] = true
			if !live[p] {
				bad("lot owns %s, which is not a live file", p)
			}
		}
		for p := range live {
			if !owned[p] {
				bad("live file %s is not charged to the lot", p)
			}
		}
	}
	if len(problems) > 20 {
		problems = append(problems[:20], fmt.Sprintf("... %d more", len(problems)-20))
	}
	return problems
}

func (p *phase) summary() map[string]any {
	clientOps := map[string]int64{}
	for i, n := range p.t.perProto {
		if n > 0 {
			clientOps[protoNames[i]] = n
		}
	}
	p50 := pctOf(slices.Clone(p.lat), 0.5)
	p99 := pctOf(slices.Clone(p.lat), 0.99)
	return map[string]any{
		"elapsed_s":       p.elapsed.Seconds(),
		"attempted":       p.t.attempted,
		"failed":          p.t.failed,
		"refused":         p.t.refused,
		"gets":            p.t.gets,
		"puts":            p.t.puts,
		"client_ops":      clientOps,
		"server_ops":      p.d.protoOps,
		"op_p50_us":       p50,
		"op_p99_us":       p99,
		"gate_problems":   p.problems,
		"first_errors":    p.firstErrs,
		"parks_per_op":    ratio(float64(p.d.parks), float64(p.ops())),
		"connmgr_parks":   p.d.parks,
		"connmgr_resumes": p.d.resumes,
		"handoff_share":   ratio(float64(p.d.handoff), float64(p.d.handoff+p.d.pooled)),
		"charges_per_put": ratio(float64(p.d.charges), float64(p.t.puts)),
		"ops_per_s":       p.opsPerSec(),
		"get_MBps":        p.getMBps(),
		"cpu_us_per_op":   ratio(float64(p.d.cpuNs)/1e3, float64(p.ops())),
		"alloc_KB_per_op": ratio(float64(p.d.allocBytes)/1024, float64(p.ops())),
		"windows":         p.windows,
	}
}

// equivalenceReport compares the traced phase's path with the
// untraced one.
type equivalenceReport struct {
	Checks     map[string][2]float64 `json:"checks"`
	Deviations []string              `json:"deviations"`
}

// equivalence checks that the traced build took the same path as
// core.New: the same share of chunks through the extent handoff, the
// same parking per op, the same lot charges per put, and the same mix
// of requests per protocol at the dispatcher.
func equivalence(plain, tr *phase) equivalenceReport {
	rep := equivalenceReport{Checks: map[string][2]float64{}}
	check := func(name string, a, b, tol float64) {
		rep.Checks[name] = [2]float64{a, b}
		if math.Abs(a-b) > tol {
			rep.Deviations = append(rep.Deviations, fmt.Sprintf("%s: untraced %.4f, traced %.4f", name, a, b))
		}
	}
	share := func(d counters) float64 { return ratio(float64(d.handoff), float64(d.handoff+d.pooled)) }
	check("storage.handoff_share", share(plain.d), share(tr.d), 0.02)
	parks := func(p *phase) float64 { return ratio(float64(p.d.parks), float64(p.ops())) }
	check("connmgr.parks_per_op", parks(plain), parks(tr), 0.05*math.Max(parks(plain), 0.2))
	charges := func(p *phase) float64 { return ratio(float64(p.d.charges), float64(p.t.puts)) }
	check("lots.charges_per_put", charges(plain), charges(tr), 0.02)
	protos := map[string]bool{}
	for p := range plain.d.protoOps {
		protos[p] = true
	}
	for p := range tr.d.protoOps {
		protos[p] = true
	}
	total := func(m map[string]int64) float64 {
		var n int64
		for _, v := range m {
			n += v
		}
		return float64(n)
	}
	names := make([]string, 0, len(protos))
	for p := range protos {
		names = append(names, p)
	}
	sort.Strings(names)
	// The mix is drawn per op, so short phases differ by a few ops.
	shareTol := 0.03 + 3/math.Max(1, math.Min(total(plain.d.protoOps), total(tr.d.protoOps)))
	for _, p := range names {
		check("ops_share."+p, ratio(float64(plain.d.protoOps[p]), total(plain.d.protoOps)),
			ratio(float64(tr.d.protoOps[p]), total(tr.d.protoOps)), shareTol)
	}
	return rep
}

// fingerprint describes the machine a run was measured on.
func fingerprint(workdir string) map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					model = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return map[string]any{
		"cores":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"cpu_model":      model,
		"go_version":     runtime.Version(),
		"os_arch":        runtime.GOOS + "/" + runtime.GOARCH,
		"localfs_fstype": fsType(workdir),
	}
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext2/3/4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
