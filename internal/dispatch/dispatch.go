// Package dispatch implements NeST's dispatcher (paper §2.1): the main
// scheduler and macro-request router. It accepts client connections
// through protocol handlers, drives each virtual protocol connection,
// routes data-movement requests to the transfer manager and everything
// else to the storage manager (serialized, in a thread-safe schedule),
// and periodically consolidates resource information into a ClassAd
// for publication into a global scheduling system.
package dispatch

import (
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nest/internal/classad"
	"nest/internal/connmgr"
	"nest/internal/discovery"
	"nest/internal/obs"
	"nest/internal/protocol"
	"nest/internal/sim"
	"nest/internal/storage"
	"nest/internal/transfer"
)

// MaxAdvertisedReplicas caps the number of file paths an appliance
// lists in its ClassAd's Replicas attribute. The advertisement is a
// periodic full-state refresh, so the cap bounds ad size (and collector
// memory) on appliances holding very many files; the replica catalog is
// best-effort beyond it.
const MaxAdvertisedReplicas = 4096

// nextAcceptBackoff doubles an accept-retry delay up to a 1s cap.
func nextAcceptBackoff(cur time.Duration) time.Duration {
	if cur <= 0 {
		return 5 * time.Millisecond
	}
	if cur >= time.Second/2 {
		return time.Second
	}
	return cur * 2
}

// Dispatcher routes requests between the protocol layer, the storage
// manager and the transfer manager.
type Dispatcher struct {
	clock sim.Clock
	store *storage.Manager
	xfer  *transfer.Manager

	// storageMu orders non-transfer requests at the storage manager.
	// Mutating ops take the write lock and execute in the paper's
	// serialized, thread-safe schedule (§2.1); read-only ops (stat,
	// list, ping, statfs, acl_get, lot_status) take the read lock and
	// run concurrently with each other, relying on the reader locks of
	// the components below (acl, lots, quota, cache, memfs).
	storageMu sync.RWMutex

	mu        sync.Mutex
	listeners []net.Listener
	protocols []string
	sessions  map[protocol.Session]bool
	closed    bool
	wg        sync.WaitGroup

	// logger receives connection-level diagnostics; nil silences. It is
	// an atomic pointer so SetLogger is safe after accept goroutines
	// have started (the old bare exported field raced with logf).
	logger atomic.Pointer[log.Logger]

	// cm is the optional connection front end (admission, shedding,
	// parking); nil keeps the goroutine-per-connection path. Set at
	// wiring time via SetConnManager, before serving.
	cm *connmgr.Manager

	// Diagnostics token bucket (logRated): peers can mint handshake
	// and session errors at line rate, so those paths are clipped.
	logLim     sync.Mutex
	logTokens  float64
	logLast    time.Duration
	logDropped atomic.Int64

	// Observability (package obs). The registry and rings are created
	// at New and live for the dispatcher; per-protocol instrument
	// blocks are resolved once per session, so the per-request record
	// path is a handful of uncontended atomics.
	reg      *obs.Registry
	stats    atomic.Pointer[map[string]*protoStats]
	latRead  *obs.Histogram // read-lock (concurrent) control-plane path
	latWrite *obs.Histogram // write-lock (serialized) control-plane path
	latXfer  *obs.Histogram // transfer path (queue + data phase)
	ring     *obs.Ring      // sampled recent requests
	slowRing *obs.Ring      // requests over the slow threshold
	slowNs   atomic.Int64
	heat     *obs.HeatMap // per-file GET demand, feeds replication
	tracer   *obs.Tracer  // distributed span recording

	// Advertisement bandwidth window: per-protocol byte counts at the
	// previous Advertisement call (under mu).
	pubBytes map[string]int64
	pubAt    time.Duration
}

// New wires a dispatcher.
func New(clock sim.Clock, store *storage.Manager, xfer *transfer.Manager) *Dispatcher {
	d := &Dispatcher{
		clock:    clock,
		store:    store,
		xfer:     xfer,
		sessions: make(map[protocol.Session]bool),
		pubBytes: make(map[string]int64),
		pubAt:    clock.Now(),
	}
	d.logTokens = logBurst
	d.logLast = clock.Now()
	d.initObs()
	// The transfer manager records its stage spans (queue wait, data
	// phase, stripes) into the same tracer, so a transfer's tree is
	// complete without extra wiring.
	xfer.SetTracer(d.tracer)
	return d
}

// SetName stamps the appliance's advertised name onto every span the
// dispatcher records (and seeds the fleet-unique ID space). Call at
// wiring time, before serving.
func (d *Dispatcher) SetName(name string) { d.tracer.SetAppliance(name) }

// Tracer returns the dispatcher's span tracer, for components outside
// the request path (replica selection, gridmgr) that contribute spans
// to the same rings.
func (d *Dispatcher) Tracer() *obs.Tracer { return d.tracer }

// SetLogger installs (or clears, with nil) the diagnostics logger.
// Safe to call at any time, including while sessions are being served.
func (d *Dispatcher) SetLogger(l *log.Logger) { d.logger.Store(l) }

// track registers an active session; it reports false (and closes the
// session) when the dispatcher is already shut down.
func (d *Dispatcher) track(s protocol.Session) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	d.sessions[s] = true
	return true
}

func (d *Dispatcher) untrack(s protocol.Session) {
	d.mu.Lock()
	delete(d.sessions, s)
	d.mu.Unlock()
}

// Store returns the storage manager.
func (d *Dispatcher) Store() *storage.Manager { return d.store }

// Transfers returns the transfer manager.
func (d *Dispatcher) Transfers() *transfer.Manager { return d.xfer }

func (d *Dispatcher) logf(format string, args ...interface{}) {
	if l := d.logger.Load(); l != nil {
		l.Printf(format, args...)
	}
}

// ServeListener accepts connections on ln and drives each through the
// protocol handler. It returns when the listener is closed.
func (d *Dispatcher) ServeListener(ln net.Listener, h protocol.Handler) {
	if !d.Register(ln, h.Proto()) {
		return
	}
	d.serve(ln, h)
}

// Register records a protocol endpoint (so advertisements list it)
// without starting the accept loop; it reports false when the
// dispatcher is closed. Use with Serve for synchronous registration.
func (d *Dispatcher) Register(ln net.Listener, proto string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		ln.Close()
		return false
	}
	d.listeners = append(d.listeners, ln)
	d.protocols = append(d.protocols, proto)
	return true
}

// Serve runs the accept loop for a listener previously Registered.
func (d *Dispatcher) Serve(ln net.Listener, h protocol.Handler) {
	d.serve(ln, h)
}

func (d *Dispatcher) serve(ln net.Listener, h protocol.Handler) {
	proto := h.Proto()
	cm := d.cm
	// With a connection manager, accepted conns feed a bounded queue
	// drained by a fixed handshake-worker pool (accept → admit →
	// handshake → serve); a full queue sheds instead of spawning.
	var queue chan net.Conn
	var hwg sync.WaitGroup
	if cm != nil {
		queue = make(chan net.Conn, acceptQueueDepth)
		for i := 0; i < handshakeWorkers; i++ {
			hwg.Add(1)
			go func() {
				defer hwg.Done()
				for conn := range queue {
					d.admitConn(conn, h, proto)
				}
			}()
		}
		defer func() {
			close(queue)
			hwg.Wait()
		}()
	}
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			// Shutdown must win over retry: a closing dispatcher's
			// listener error returns immediately instead of sitting out
			// a backoff the closer would have to wait for.
			if errors.Is(err, net.ErrClosed) || d.isClosed() {
				return
			}
			// A transient accept failure (connection aborted in the
			// backlog, descriptor exhaustion) must not take the whole
			// protocol endpoint down: back off and retry, returning
			// only when the listener itself is closed.
			var ne net.Error
			if errors.As(err, &ne) {
				backoff = nextAcceptBackoff(backoff)
				d.logRated("dispatch: %s accept: %v (retrying in %v)", proto, err, backoff)
				time.Sleep(backoff)
				continue
			}
			return
		}
		backoff = 0
		if cm == nil {
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				sess, err := h.NewSession(conn)
				if err != nil {
					d.logRated("dispatch: %s handshake from %s failed: %v", proto, connAddr(conn), err)
					conn.Close()
					return
				}
				d.ServeSession(sess)
			}()
			continue
		}
		select {
		case queue <- conn:
		default:
			cm.ShedOverflow(proto)
			go d.refuseBusy(conn, proto)
		}
	}
}

func (d *Dispatcher) isClosed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// ServeSession drives one virtual protocol connection to completion.
//
// Each request is counted per protocol × op (exact counts, one atomic
// add). Latency is recorded into the histogram of the path the
// request took (read-lock, write-lock, or transfer): transfers are
// timed exactly (the data phase dwarfs the clock reads), control-plane
// ops are timed for one request in traceSampleEvery — the unsampled
// fast path takes no extra clock reads, which keeps the dispatcher's
// per-request overhead inside the <5% benchmark budget. Sampled
// requests also record full stage timing into the trace ring, and any
// timed request over the slow threshold lands in the slow-trace ring.
//
// ServeSession never parks: it serves on the calling goroutine until
// the session ends, whatever the front-end configuration — direct
// callers (tests, embedders) rely on the blocking contract. Sessions
// arriving through a listener with a connection manager installed take
// the admitConn path instead, which parks idle parkable sessions.
func (d *Dispatcher) ServeSession(s protocol.Session) {
	cs := &connState{d: d, s: s, proto: s.Proto(), user: s.User()}
	if !d.track(s) {
		s.Close()
		return
	}
	cs.ps = d.protoStatsFor(cs.proto)
	cs.loop()
}

// handleTransfer performs the synchronous approval at the storage
// manager, then hands the data phase to the transfer manager and waits
// for it (the dispatcher stops listening on the client channel while
// the transfer is in flight, paper §2.2). It reports the bytes moved,
// the reply code, and the scheduler queue time for tracing.
func (d *Dispatcher) handleTransfer(s protocol.Session, req *protocol.Request) (int64, int, time.Duration) {
	switch req.Op {
	case protocol.OpGet:
		return d.handleGet(s, req)
	case protocol.OpPut:
		return d.handlePut(s, req)
	}
	return 0, protocol.CodeBadRequest, 0
}

func (d *Dispatcher) await(t *transfer.Transfer) transfer.Result {
	done := make(chan transfer.Result, 1)
	t.OnDone = func(r transfer.Result) {
		d.clock.Unpark()
		done <- r
	}
	d.xfer.Submit(t)
	d.clock.Park()
	return <-done
}

func (d *Dispatcher) handleGet(s protocol.Session, req *protocol.Request) (int64, int, time.Duration) {
	f, size, errRep := d.store.ApproveGet(req)
	if errRep != nil {
		s.Reply(req, errRep)
		return 0, errRep.Code, 0
	}
	defer f.Close()
	sink, err := s.SendData(req, size)
	if err != nil {
		return 0, protocol.CodeInternal, 0
	}
	tr := &transfer.Transfer{
		Class:   req.Proto,
		User:    req.User,
		Path:    storage.Clean(req.Path),
		Offset:  req.Offset,
		Size:    size,
		TraceID: req.TraceID,
		Span:    req.SpanID,
	}
	if !stripeGet(tr, req, f, size, sink) {
		tr.Src = storage.NewSectionReader(f, req.Offset, size)
		tr.Dst = sink
	}
	res := d.await(tr)
	sink.Close()
	rep := protocol.OKReply()
	rep.Size = res.Bytes
	if res.Err != nil {
		rep = protocol.ErrReply(protocol.CodeInternal, "transfer failed: %v", res.Err)
	} else {
		// Per-file GET heat feeds the replication manager's choice of
		// which files are worth mirroring across the fleet.
		d.heat.Touch(tr.Path, res.Bytes)
	}
	s.Reply(req, rep)
	return res.Bytes, rep.Code, res.Queue
}

func (d *Dispatcher) handlePut(s protocol.Session, req *protocol.Request) (int64, int, time.Duration) {
	ticket, errRep := d.store.ApprovePut(req)
	if errRep != nil {
		s.Reply(req, errRep)
		return 0, errRep.Code, 0
	}
	src, err := s.RecvData(req)
	if err != nil {
		d.store.FinishPut(ticket, 0, err)
		return 0, protocol.CodeInternal, 0
	}
	tr := &transfer.Transfer{
		Class:   req.Proto,
		User:    req.User,
		Path:    storage.Clean(req.Path),
		Offset:  req.Offset,
		Size:    req.Size,
		TraceID: req.TraceID,
		Span:    req.SpanID,
	}
	if !stripePut(tr, req, ticket.File, src) {
		tr.Src = src
		tr.Dst = storage.NewOffsetWriter(ticket.File, req.Offset)
	}
	res := d.await(tr)
	src.Close()
	rep := d.store.FinishPut(ticket, res.Bytes, res.Err)
	s.Reply(req, rep)
	return res.Bytes, rep.Code, res.Queue
}

// stripeGet populates tr.Ranges for a striped get when the protocol
// handler asked for parallelism (req.Stripes > 1), the sink can frame
// offset-addressed stripes (FTP MODE E), and the file is large enough
// to partition on extent boundaries. Each stripe reads its own
// SectionReader and writes its own sink at the payload-relative offset;
// it reports whether striping was set up.
func stripeGet(tr *transfer.Transfer, req *protocol.Request, f storage.File, size int64, sink io.WriteCloser) bool {
	if req.Stripes < 2 || size <= 0 {
		return false
	}
	ss, ok := sink.(protocol.StripeSink)
	if !ok {
		return false
	}
	ranges := storage.PartitionStripes(req.Offset, size, req.Stripes)
	if len(ranges) < 2 {
		return false
	}
	for _, r := range ranges {
		tr.Ranges = append(tr.Ranges, transfer.StripeRange{
			Offset: r.Off,
			Size:   r.N,
			Src:    storage.NewSectionReader(f, r.Off, r.N),
			Dst:    ss.SinkAt(r.Off - req.Offset),
		})
	}
	return true
}

// stripePut is the put-side counterpart: it partitions the declared
// size, announces the interior boundaries to the source (so arriving
// blocks are split to stripe ranges), and gives each stripe its own
// range reader and OffsetWriter. Puts with unknown size (-1) cannot
// stripe — there is nothing to partition.
func stripePut(tr *transfer.Transfer, req *protocol.Request, f storage.File, src io.ReadCloser) bool {
	if req.Stripes < 2 || req.Size <= 0 {
		return false
	}
	sSrc, ok := src.(protocol.StripeSource)
	if !ok {
		return false
	}
	ranges := storage.PartitionStripes(req.Offset, req.Size, req.Stripes)
	if len(ranges) < 2 {
		return false
	}
	bounds := make([]int64, 0, len(ranges)-1)
	for _, r := range ranges[1:] {
		bounds = append(bounds, r.Off-req.Offset)
	}
	sSrc.SetStripeBounds(bounds)
	for _, r := range ranges {
		tr.Ranges = append(tr.Ranges, transfer.StripeRange{
			Offset: r.Off,
			Size:   r.N,
			Src:    sSrc.SourceAt(r.Off-req.Offset, r.N),
			Dst:    storage.NewOffsetWriter(f, r.Off),
		})
	}
	return true
}

// Advertisement consolidates resource and data availability into the
// NeST ClassAd published to the Grid (paper §2.1, §6), extended with
// live health: recent per-protocol bandwidth over the window since the
// previous Advertisement call, p99 request latency across all dispatch
// paths, and the transfer queue depth — so the matchmaker can rank
// appliances by current load, not just static capacity.
func (d *Dispatcher) Advertisement(name string) *classad.Ad {
	ad := d.store.Advertisement()
	ad.SetString("Name", name)
	now := d.clock.Now()
	stats := *d.stats.Load()
	d.mu.Lock()
	vals := make([]classad.Value, len(d.protocols))
	addrs := make(map[string]string, len(d.protocols))
	for i, p := range d.protocols {
		vals[i] = classad.Str(p)
		// First listener per protocol wins; the Addr_<proto> attributes
		// make the ad a self-contained endpoint directory for replica
		// selection and peer-to-peer replication.
		if _, ok := addrs[p]; !ok {
			addrs[p] = d.listeners[i].Addr().String()
		}
	}
	elapsed := (now - d.pubAt).Seconds()
	d.pubAt = now
	var totalMBps float64
	perProto := make(map[string]float64, len(stats))
	for p, ps := range stats {
		cur := ps.bytes.Value()
		delta := cur - d.pubBytes[p]
		d.pubBytes[p] = cur
		var mbps float64
		if elapsed > 0 && delta > 0 {
			mbps = float64(delta) / (1 << 20) / elapsed
		}
		perProto[p] = mbps
		totalMBps += mbps
	}
	d.mu.Unlock()
	ad.SetValue("Protocols", classad.List(vals...))
	for p, addr := range addrs {
		ad.SetString("Addr_"+p, addr)
	}
	// The advertised file list feeds the collector's replica catalog:
	// logical name -> set of appliances holding a copy.
	discovery.SetReplicas(ad, d.store.Files(MaxAdvertisedReplicas))
	ad.SetString("Schedule", d.xfer.Policy().Name())
	ad.SetString("ConcurrencyModel", d.xfer.ModelName())
	for p, mbps := range perProto {
		ad.SetReal("RecentBandwidthMBps_"+p, mbps)
	}
	ad.SetReal("RecentBandwidthMBps", totalMBps)
	lat := d.latRead.Snapshot()
	lat.Merge(d.latWrite.Snapshot())
	lat.Merge(d.latXfer.Snapshot())
	ad.SetReal("P99LatencyMs", float64(lat.Quantile(0.99))/1e6)
	ad.SetInt("QueueDepth", d.xfer.QueueDepth())
	// Connection health, when a front end is installed: collectors can
	// constrain on OpenConns/ParkedConns to steer new clients away from
	// connection-saturated appliances.
	if cm := d.cm; cm != nil {
		st := cm.Stats()
		ad.SetInt("OpenConns", st.Active+st.ParkedNow)
		ad.SetInt("ParkedConns", st.ParkedNow)
	}
	ad.SetInt("UpdatedAt", int64(now/time.Millisecond))
	return ad
}

// Publish periodically builds the advertisement and hands it to
// publish until the dispatcher closes. Call in its own goroutine via
// the clock.
func (d *Dispatcher) Publish(name string, every time.Duration, publish func(*classad.Ad)) {
	d.clock.Go(func() {
		for {
			d.mu.Lock()
			closed := d.closed
			d.mu.Unlock()
			if closed {
				return
			}
			publish(d.Advertisement(name))
			d.clock.Sleep(every)
		}
	})
}

// Close stops accepting connections and waits for active sessions.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	lns := d.listeners
	sessions := make([]protocol.Session, 0, len(d.sessions))
	for s := range d.sessions {
		sessions = append(sessions, s)
	}
	d.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, s := range sessions {
		s.Close()
	}
	// Closing the manager wakes every parked session with WakeShutdown;
	// each teardown runs inline here and releases its d.wg slot, so the
	// Wait below covers parked connections too.
	if d.cm != nil {
		d.cm.Close()
	}
	d.wg.Wait()
}
