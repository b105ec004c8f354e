package ftp

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"

	"nest/internal/bufpool"
)

// lockedConn serializes block writes on one data connection, so
// concurrent stripe writers sharing a connection never interleave a
// header with another block's payload.
type lockedConn struct {
	mu sync.Mutex
	c  net.Conn
}

// writeBlock frames p as one MODE E block at the given payload offset.
// The caller supplies its own header and vector scratch, so concurrent
// writers on the same connection contend only for the connection lock,
// and header+payload still leave as one vectored write (writev on TCP).
func (lc *lockedConn) writeBlock(hdr *[blockHeaderLen]byte, bufs *net.Buffers, off uint64, p []byte) error {
	hdr[0] = 0
	binary.BigEndian.PutUint64(hdr[1:9], uint64(len(p)))
	binary.BigEndian.PutUint64(hdr[9:17], off)
	*bufs = append((*bufs)[:0], hdr[:], p)
	lc.mu.Lock()
	_, err := bufs.WriteTo(lc.c)
	lc.mu.Unlock()
	return err
}

// modeESender stripes written data across parallel streams as MODE E
// blocks: every Write becomes one block, assigned round-robin. Close
// emits EOD on every stream and EOF (carrying the stream count) on the
// first. Header and payload go out as one vectored write (writev on
// TCP), so zero-copy extent chunks are never concatenated with their
// 17-byte block header in user space; hdr and bufs are reused scratch
// so the steady-state block path does not allocate.
//
// For striped transfers SinkAt hands out per-stripe writers instead:
// each stripe frames its own byte range on its own connection, and the
// sequential Write path goes unused.
type modeESender struct {
	conns      []*lockedConn
	next       int
	nextStripe int
	offset     uint64
	closed     bool
	hdr        [blockHeaderLen]byte
	bufs       net.Buffers
}

func newModeESender(conns []net.Conn) *modeESender {
	s := &modeESender{conns: make([]*lockedConn, len(conns))}
	for i, c := range conns {
		s.conns[i] = &lockedConn{c: c}
	}
	return s
}

func (s *modeESender) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	conn := s.conns[s.next%len(s.conns)]
	s.next++
	if err := conn.writeBlock(&s.hdr, &s.bufs, s.offset, p); err != nil {
		return 0, err
	}
	s.offset += uint64(len(p))
	return len(p), nil
}

// SinkAt implements protocol.StripeSink: it returns a writer that
// frames its bytes as blocks addressed from the given payload offset.
// Stripes are assigned to data connections round-robin, so width W over
// N connections keeps all N busy. Call SinkAt before the stripe pumps
// start (the assignment cursor is not locked); the returned writers are
// then safe to use concurrently with each other.
func (s *modeESender) SinkAt(off int64) io.Writer {
	w := &stripeWriter{conn: s.conns[s.nextStripe%len(s.conns)], off: uint64(off)}
	s.nextStripe++
	return w
}

// stripeWriter frames one stripe's sequential writes as offset-addressed
// MODE E blocks on its assigned connection.
type stripeWriter struct {
	conn *lockedConn
	off  uint64
	hdr  [blockHeaderLen]byte
	bufs net.Buffers
}

func (w *stripeWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if err := w.conn.writeBlock(&w.hdr, &w.bufs, w.off, p); err != nil {
		return 0, err
	}
	w.off += uint64(len(p))
	return len(p), nil
}

func (s *modeESender) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	for i, conn := range s.conns {
		h := blockHeader{Desc: DescEOD}
		if i == 0 {
			h.Desc |= DescEOF
			h.Offset = uint64(len(s.conns))
		}
		conn.mu.Lock()
		err := writeBlockHeader(conn.c, h)
		cerr := conn.c.Close()
		conn.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if cerr != nil && firstErr == nil {
			firstErr = cerr
		}
	}
	return firstErr
}

// modeEReceiver reassembles MODE E blocks from parallel streams into a
// sequential byte stream (io.Reader), buffering out-of-order blocks
// until their offset is due. Streams may keep arriving (via attach)
// until the EOF block announces how many to expect.
type modeEReceiver struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending map[uint64][]byte  // offset -> data
	backing map[uint64]*[]byte // offset -> pooled buffer behind pending data
	bounds  []uint64           // stripe partition offsets; blocks never straddle one
	nextOff uint64
	buf     []byte  // current in-order run being consumed
	bufp    *[]byte // pooled backing of buf; recycled once drained
	eods    int
	streams int // 0 until the EOF block announces the count
	err     error
	conns   []net.Conn
	closed  bool

	// ln is the PASV listener a server-side STOR keeps accepting
	// streams on. Close shuts it, so a finished transfer does not hold
	// the listener, its accept goroutine and the reassembly maps until
	// the accept deadline expires.
	ln net.Listener
}

func newModeEReceiver() *modeEReceiver {
	r := &modeEReceiver{
		pending: make(map[uint64][]byte),
		backing: make(map[uint64]*[]byte),
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// attach starts consuming blocks from one data stream; a stream that
// arrives after Close is shut at once.
func (r *modeEReceiver) attach(conn net.Conn) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		conn.Close()
		return
	}
	r.conns = append(r.conns, conn)
	r.mu.Unlock()
	go r.readStream(conn)
}

func (r *modeEReceiver) readStream(conn net.Conn) {
	for {
		h, err := readBlockHeader(conn)
		if err != nil {
			r.fail(fmt.Errorf("ftp: mode E stream: %w", err))
			return
		}
		// Block payloads come from the shared buffer pool (heavy MODE E
		// senders emit one block per chunk, so a per-block make would
		// allocate the whole transfer again); the buffer is recycled as
		// soon as Read drains it, or by Close.
		var data []byte
		var datap *[]byte
		if h.Count > 0 {
			datap = bufpool.GetAtLeast(int(h.Count))
			data = *datap
			if _, err := io.ReadFull(conn, data); err != nil {
				bufpool.Put(datap)
				r.fail(fmt.Errorf("ftp: mode E payload: %w", err))
				return
			}
		}
		r.mu.Lock()
		if len(data) > 0 {
			r.ingestLocked(h.Offset, data, datap)
		}
		if h.Desc&DescEOF != 0 {
			r.streams = int(h.Offset)
		}
		done := false
		if h.Desc&DescEOD != 0 {
			r.eods++
			done = true
		}
		r.cond.Broadcast()
		r.mu.Unlock()
		if done {
			return
		}
	}
}

// ingestLocked files one arriving block into the reassembly map. When
// stripe bounds are set, a block straddling a bound is split so every
// stored block lies entirely within one stripe range — the first part
// keeps the original pooled backing (shrunk in place), the remainder is
// copied into a fresh pooled buffer and re-ingested (a block may cross
// several bounds). Caller holds r.mu.
func (r *modeEReceiver) ingestLocked(off uint64, data []byte, datap *[]byte) {
	for _, b := range r.bounds {
		if b > off && b < off+uint64(len(data)) {
			cut := b - off
			rest := data[cut:]
			restp := bufpool.GetAtLeast(len(rest))
			restData := (*restp)[:len(rest)]
			copy(restData, rest)
			r.storeLocked(off, data[:cut], datap)
			r.ingestLocked(b, restData, restp)
			return
		}
	}
	r.storeLocked(off, data, datap)
}

// storeLocked records a block, recycling any duplicate-offset block a
// misbehaving sender already delivered instead of leaking it from the
// pool. Caller holds r.mu.
func (r *modeEReceiver) storeLocked(off uint64, data []byte, datap *[]byte) {
	if prev, ok := r.backing[off]; ok {
		bufpool.Put(prev)
	}
	r.pending[off] = data
	r.backing[off] = datap
}

// SetStripeBounds implements protocol.StripeSource: it announces the
// payload offsets at which SourceAt range readers will partition the
// stream. Must be called before data arrives (the dispatcher does so
// between RecvData and starting the stripe pumps); blocks already
// ingested are not retroactively split.
func (r *modeEReceiver) SetStripeBounds(bounds []int64) {
	r.mu.Lock()
	r.bounds = r.bounds[:0]
	for _, b := range bounds {
		r.bounds = append(r.bounds, uint64(b))
	}
	r.mu.Unlock()
}

// SourceAt implements protocol.StripeSource: it returns a reader over
// the payload range [off, off+n), delivering that range's bytes in
// offset order and io.EOF at the range end. Readers for disjoint ranges
// are safe to use concurrently; interior range boundaries must have
// been announced via SetStripeBounds so no block straddles a range.
func (r *modeEReceiver) SourceAt(off, n int64) io.Reader {
	return &rangeReader{r: r, pos: uint64(off), end: uint64(off + n)}
}

// rangeReader consumes one stripe's payload range from the shared
// reassembly map. Each reader tracks its own in-order cursor; all
// coordination happens under the receiver's lock and cond.
type rangeReader struct {
	r    *modeEReceiver
	pos  uint64
	end  uint64
	buf  []byte
	bufp *[]byte
}

func (rr *rangeReader) Read(p []byte) (int, error) {
	r := rr.r
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if len(rr.buf) == 0 {
			rr.recycleLocked()
			if rr.pos >= rr.end {
				return 0, io.EOF
			}
			if data, ok := r.pending[rr.pos]; ok {
				delete(r.pending, rr.pos)
				rr.bufp = r.backing[rr.pos]
				delete(r.backing, rr.pos)
				if got := rr.pos + uint64(len(data)); got > rr.end {
					// A block crossing the range end means bounds were not
					// announced; fail loudly rather than deliver foreign bytes.
					bufpool.Put(rr.bufp)
					rr.bufp = nil
					return 0, fmt.Errorf("ftp: mode E block [%d,%d) crosses stripe end %d (missing SetStripeBounds?)", rr.pos, got, rr.end)
				}
				rr.pos += uint64(len(data))
				rr.buf = data
			}
		}
		if len(rr.buf) > 0 {
			n := copy(p, rr.buf)
			rr.buf = rr.buf[n:]
			if len(rr.buf) == 0 {
				rr.recycleLocked()
			}
			return n, nil
		}
		if r.err != nil {
			return 0, r.err
		}
		if r.finishedLocked() {
			return 0, fmt.Errorf("ftp: mode E gap at offset %d before stripe end %d", rr.pos, rr.end)
		}
		r.cond.Wait()
	}
}

// recycleLocked returns the drained block's pooled buffer. Caller holds
// the receiver's lock.
func (rr *rangeReader) recycleLocked() {
	if rr.bufp != nil {
		bufpool.Put(rr.bufp)
		rr.bufp = nil
		rr.buf = nil
	}
}

func (r *modeEReceiver) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// finished reports (locked) whether all announced streams delivered
// their EOD.
func (r *modeEReceiver) finishedLocked() bool {
	return r.streams > 0 && r.eods >= r.streams
}

// Read implements io.Reader, delivering bytes in offset order.
func (r *modeEReceiver) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if len(r.buf) == 0 {
			r.recycleBufLocked()
			if data, ok := r.pending[r.nextOff]; ok {
				delete(r.pending, r.nextOff)
				r.bufp = r.backing[r.nextOff]
				delete(r.backing, r.nextOff)
				r.nextOff += uint64(len(data))
				r.buf = data
			}
		}
		if len(r.buf) > 0 {
			n := copy(p, r.buf)
			r.buf = r.buf[n:]
			if len(r.buf) == 0 {
				r.recycleBufLocked()
			}
			return n, nil
		}
		if r.err != nil {
			return 0, r.err
		}
		if r.finishedLocked() {
			if len(r.pending) > 0 {
				// Gap in offsets: data lost.
				offs := make([]uint64, 0, len(r.pending))
				for o := range r.pending {
					offs = append(offs, o)
				}
				sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
				return 0, fmt.Errorf("ftp: mode E gap at offset %d (next block %d)", r.nextOff, offs[0])
			}
			return 0, io.EOF
		}
		r.cond.Wait()
	}
}

// recycleBufLocked returns the drained in-order block's pooled buffer.
// Caller holds r.mu.
func (r *modeEReceiver) recycleBufLocked() {
	if r.bufp != nil {
		bufpool.Put(r.bufp)
		r.bufp = nil
		r.buf = nil
	}
}

// Close stops accepting streams, tears down all attached streams and
// recycles any block buffers still pending reassembly.
func (r *modeEReceiver) Close() error {
	r.mu.Lock()
	conns, ln := r.conns, r.ln
	r.conns, r.ln = nil, nil
	r.closed = true
	if r.err == nil && !r.finishedLocked() {
		r.err = io.ErrClosedPipe
	}
	r.recycleBufLocked()
	for off, bp := range r.backing {
		bufpool.Put(bp)
		delete(r.backing, off)
		delete(r.pending, off)
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return nil
}
