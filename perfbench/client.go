package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/textproto"
	"strconv"
	"sync/atomic"
	"time"

	"nest/internal/chirp"
	"nest/internal/ftp"
	"nest/internal/gridftp"
	"nest/internal/gsi"
	"nest/internal/httpx"
	"nest/internal/nfs"
	"nest/internal/protocol"
)

// errContent marks an op whose bytes or attributes were wrong.
var errContent = errors.New("wrong content")

// errRefused marks an op the appliance refused to protect itself
// (connection quota or overload shedding).
var errRefused = errors.New("refused by appliance")

// tally counts one client's ops in the measured phase.
type tally struct {
	attempted, failed, refused int64
	gets, puts                 int64
	getBytes, putBytes         int64
	perProto                   [nProtos]int64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.refused += o.refused
	t.gets += o.gets
	t.puts += o.puts
	t.getBytes += o.getBytes
	t.putBytes += o.putBytes
	for i := range t.perProto {
		t.perProto[i] += o.perProto[i]
	}
}

// callKind names the public client calls the traced run times.
type callKind int

const (
	callChirpGet callKind = iota
	callChirpPut
	callChirpStat
	callHTTPGet
	callGridFTPRetr
	callNFSReadRPC
	nCalls
)

// callSpans are the benchmark's own spans around public client calls,
// in µs, kept per client (no locking) and merged after the run.
type callSpans struct {
	us       [nCalls][]float64
	nfsRPCs  int64 // lookup + read RPCs issued
	nfsBytes int64 // payload bytes those RPCs returned
}

// client is one closed-loop load generator: one session per protocol it
// uses, a reusable verifying sink and pattern source, and its own
// seeded op stream.
type client struct {
	id    int
	w     *workload
	c     *content
	addrs map[string]string
	cred  *gsi.Credential
	lotID string
	draw  func() op

	chirp   *chirp.Client
	http    *httpConn
	gftp    *ftp.Client
	nfs     *nfs.Client
	nfsDirs map[string]nfs.FH

	sink verifySink
	src  patternSource

	tally    tally
	done     atomic.Int64 // completed ops, read by the window sampler
	doneGet  atomic.Int64 // completed GET payload bytes, likewise
	lat      []float64    // µs per successful op, measured phase only
	spans    *callSpans   // non-nil in the traced phase
	firstErr error        // first failure, for the report
}

func newClient(id int, w *workload, c *content, addrs map[string]string, cred *gsi.Credential, seed uint64) *client {
	return &client{
		id: id, w: w, c: c, addrs: addrs, cred: cred,
		draw:    w.newDraw(seed, id),
		nfsDirs: map[string]nfs.FH{},
		sink:    verifySink{c: c},
		src:     patternSource{c: c},
	}
}

// session getters dial on first use (and again after a failed op
// dropped the session).

func (cl *client) chirpSession() (*chirp.Client, error) {
	if cl.chirp == nil {
		c, err := chirp.Dial(cl.addrs[chirp.Proto], cl.cred)
		if err != nil {
			return nil, err
		}
		cl.chirp = c
	}
	return cl.chirp, nil
}

func (cl *client) httpSession() (*httpConn, error) {
	if cl.http == nil {
		conn, err := net.Dial("tcp", cl.addrs[httpx.Proto])
		if err != nil {
			return nil, err
		}
		cl.http = &httpConn{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), buf: make([]byte, 64<<10)}
	}
	return cl.http, nil
}

func (cl *client) gridftpSession() (*ftp.Client, error) {
	if cl.gftp == nil {
		c, err := gridftp.Dial(cl.addrs[gridftp.Proto], cl.cred)
		if err != nil {
			return nil, err
		}
		if err := c.SetMode('E'); err != nil {
			c.Quit()
			return nil, err
		}
		if err := c.SetParallelism(2); err != nil {
			c.Quit()
			return nil, err
		}
		cl.gftp = c
	}
	return cl.gftp, nil
}

func (cl *client) nfsDir(dir string) (*nfs.Client, nfs.FH, error) {
	if cl.nfs == nil {
		c, err := nfs.Dial(cl.addrs["nfs"])
		if err != nil {
			return nil, nfs.FH{}, err
		}
		root, err := c.Mount("/")
		if err != nil {
			c.Close()
			return nil, nfs.FH{}, err
		}
		cl.nfs = c
		clear(cl.nfsDirs)
		cl.nfsDirs["/"] = root
	}
	fh, ok := cl.nfsDirs[dir]
	if !ok {
		var err error
		fh, _, err = cl.nfs.Lookup(cl.nfsDirs["/"], dir[1:])
		if err != nil {
			return nil, nfs.FH{}, err
		}
		cl.nfsDirs[dir] = fh
	}
	return cl.nfs, fh, nil
}

// drop closes the session of p after a failure so the next op redials.
func (cl *client) drop(p proto) {
	switch p {
	case pChirp:
		if cl.chirp != nil {
			cl.chirp.Close()
			cl.chirp = nil
		}
	case pHTTP:
		if cl.http != nil {
			cl.http.conn.Close()
			cl.http = nil
		}
	case pGridFTP:
		if cl.gftp != nil {
			cl.gftp.Quit()
			cl.gftp = nil
		}
	case pNFS:
		if cl.nfs != nil {
			cl.nfs.Close()
			cl.nfs = nil
		}
	}
}

func (cl *client) closeAll() {
	for p := proto(0); p < nProtos; p++ {
		cl.drop(p)
	}
}

// span records one client call when the traced phase is on.
func (cl *client) span(k callKind, t0 time.Time) {
	if cl.spans != nil {
		cl.spans.us[k] = append(cl.spans.us[k], float64(time.Since(t0).Nanoseconds())/1e3)
	}
}

// runFor drives the closed loop until deadline; each op starts only
// after the previous reply, so at most one request per client is in
// flight.
func (cl *client) runFor(deadline time.Time) {
	for time.Now().Before(deadline) {
		cl.step()
	}
}

// runN drives n untimed ops (warm-up) and reports the first failure.
func (cl *client) runN(n int) error {
	for i := 0; i < n; i++ {
		o := cl.draw()
		if _, err := cl.exec(o); err != nil {
			return fmt.Errorf("warm-up %s %s %s: %w", protoNames[o.proto], kindName(o.kind), cl.w.files[o.file].path, err)
		}
	}
	return nil
}

func (cl *client) step() {
	o := cl.draw()
	t0 := time.Now()
	kind, err := cl.exec(o)
	d := time.Since(t0)
	t := &cl.tally
	t.attempted++
	t.perProto[o.proto]++
	if err != nil {
		t.failed++
		if errors.Is(err, errRefused) {
			t.refused++
		}
		if cl.firstErr == nil {
			cl.firstErr = fmt.Errorf("%s %s %s: %w", protoNames[o.proto], kindName(kind), cl.w.files[o.file].path, err)
		}
		return
	}
	cl.lat = append(cl.lat, float64(d.Nanoseconds())/1e3)
	cl.done.Add(1)
	switch kind {
	case opGet:
		t.gets++
		t.getBytes += cl.w.files[o.file].size
		cl.doneGet.Add(cl.w.files[o.file].size)
	case opPut:
		t.puts++
		t.putBytes += cl.w.files[o.file].size
	}
}

func kindName(k opKind) string {
	return [...]string{"get", "put", "stat", "list", "remove"}[k]
}

// exec performs one op and verifies its result. It reports the kind
// actually performed: removing a scratch file that does not exist puts
// it instead.
func (cl *client) exec(o op) (opKind, error) {
	f := &cl.w.files[o.file]
	st := &cl.w.state[o.file]
	if o.kind == opRemove && !st.exists.Load() {
		o.kind = opPut
	}
	var err error
	switch o.kind {
	case opGet:
		st.mu.RLock()
		gen := st.gen.Load()
		cl.sink.reset(cl.c.shift(o.file, gen), f.size)
		err = cl.get(o.proto, f, f.at(gen))
		st.mu.RUnlock()
		if err == nil && !cl.sink.ok() {
			err = errContent
		}
	case opPut:
		st.mu.Lock()
		gen, had := uint32(0), st.exists.Load()
		if had {
			gen = st.gen.Load() + 1
		}
		cl.src.reset(cl.c.shift(o.file, gen), f.size)
		err = cl.put(o.proto, f, f.at(gen))
		if err == nil {
			st.gen.Store(gen)
			st.exists.Store(true)
			if had && f.at(gen) != f.at(gen-1) {
				// The new version went to a fresh name; the old one
				// goes now, as part of the same op.
				if err = cl.remove(f.at(gen - 1)); err != nil {
					cl.drop(pChirp)
				}
			}
		}
		st.mu.Unlock()
	case opStat:
		err = cl.stat(f.at(st.gen.Load()), f.size)
	case opList:
		err = cl.list(f.dir)
	case opRemove:
		st.mu.Lock()
		err = cl.remove(f.at(st.gen.Load()))
		if err == nil {
			st.exists.Store(false)
		}
		st.mu.Unlock()
	}
	if err != nil && !errors.Is(err, errContent) {
		err = classify(err)
		cl.drop(o.proto)
	}
	return o.kind, err
}

// classify wraps protocol-level refusals in errRefused.
func classify(err error) error {
	var te *textproto.Error
	var ce *chirp.Error
	var he *httpError
	switch {
	case errors.Is(err, chirp.ErrBusy),
		errors.As(err, &ce) && ce.Code == protocol.CodeBusy,
		errors.As(err, &te) && te.Code == 421,
		errors.As(err, &he) && he.status == 503:
		return fmt.Errorf("%w: %v", errRefused, err)
	}
	return err
}

func (cl *client) get(p proto, f *fileSpec, path string) error {
	var n int64
	var err error
	t0 := time.Now()
	switch p {
	case pChirp:
		var c *chirp.Client
		if c, err = cl.chirpSession(); err == nil {
			t0 = time.Now()
			n, err = c.GetTo(path, &cl.sink)
			cl.span(callChirpGet, t0)
		}
	case pHTTP:
		var h *httpConn
		if h, err = cl.httpSession(); err == nil {
			t0 = time.Now()
			n, err = h.get(path, &cl.sink)
			cl.span(callHTTPGet, t0)
		}
	case pGridFTP:
		var c *ftp.Client
		if c, err = cl.gridftpSession(); err == nil {
			t0 = time.Now()
			n, err = c.Retr(path, &cl.sink)
			cl.span(callGridFTPRetr, t0)
		}
	case pNFS:
		n, err = cl.nfsRead(f)
	}
	if err == nil && n != f.size {
		err = fmt.Errorf("%w: %d of %d bytes", errContent, n, f.size)
	}
	return err
}

// nfsRead is one NFS file read: a LOOKUP, then one READ RPC per 8 KB
// block, as a kernel client would issue them.
func (cl *client) nfsRead(f *fileSpec) (int64, error) {
	c, dir, err := cl.nfsDir(f.dir)
	if err != nil {
		return 0, err
	}
	fh, attr, err := c.Lookup(dir, f.name)
	if err != nil {
		return 0, err
	}
	if attr.Size != f.size {
		return 0, fmt.Errorf("%w: nfs size %d, want %d", errContent, attr.Size, f.size)
	}
	rpcs := int64(1)
	var n int64
	for n < f.size {
		t0 := time.Now()
		data, err := c.Read(fh, uint32(n), protocol.NFSBlockSize)
		cl.span(callNFSReadRPC, t0)
		rpcs++
		if err != nil {
			return n, err
		}
		if len(data) == 0 {
			break
		}
		cl.sink.Write(data)
		n += int64(len(data))
	}
	if cl.spans != nil {
		cl.spans.nfsRPCs += rpcs
		cl.spans.nfsBytes += n
	}
	return n, nil
}

func (cl *client) put(p proto, f *fileSpec, path string) error {
	var n int64
	var err error
	switch p {
	case pChirp:
		var c *chirp.Client
		if c, err = cl.chirpSession(); err == nil {
			t0 := time.Now()
			n, err = c.Put(path, &cl.src, f.size, cl.lotID)
			cl.span(callChirpPut, t0)
		}
	case pGridFTP:
		var c *ftp.Client
		if c, err = cl.gridftpSession(); err == nil {
			// ALLO declares the size so the striped STOR can partition
			// the file and the lot is charged up front.
			if err = c.Allo(f.size); err == nil {
				n, err = c.Stor(path, &cl.src)
			}
		}
	default:
		return fmt.Errorf("no PUT over %s", protoNames[p])
	}
	if err == nil && n != f.size {
		err = fmt.Errorf("%w: stored %d of %d bytes", errContent, n, f.size)
	}
	return err
}

func (cl *client) stat(path string, size int64) error {
	c, err := cl.chirpSession()
	if err != nil {
		return err
	}
	t0 := time.Now()
	e, err := c.Stat(path)
	cl.span(callChirpStat, t0)
	if err == nil && (e.Size != size || e.IsDir) {
		err = fmt.Errorf("%w: stat size %d, want %d", errContent, e.Size, size)
	}
	return err
}

func (cl *client) list(dir string) error {
	c, err := cl.chirpSession()
	if err != nil {
		return err
	}
	entries, err := c.List(dir)
	if err == nil && len(entries) != 16 {
		err = fmt.Errorf("%w: %s lists %d entries, want 16", errContent, dir, len(entries))
	}
	return err
}

func (cl *client) remove(path string) error {
	c, err := cl.chirpSession()
	if err != nil {
		return err
	}
	return c.Remove(path)
}

// httpConn is a minimal keep-alive HTTP/1.1 GET client. The repository
// ships no HTTP client of its own, and net/http allocates per request;
// this one reuses its request and body buffers, so a GET allocates
// nothing on the client side.
type httpConn struct {
	conn net.Conn
	br   *bufio.Reader
	req  []byte
	buf  []byte
}

type httpError struct{ status int }

func (e *httpError) Error() string { return "http status " + strconv.Itoa(e.status) }

func (h *httpConn) get(path string, w io.Writer) (int64, error) {
	h.req = append(h.req[:0], "GET "...)
	h.req = append(h.req, path...)
	h.req = append(h.req, " HTTP/1.1\r\nHost: nest\r\n\r\n"...)
	if _, err := h.conn.Write(h.req); err != nil {
		return 0, err
	}
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 || string(line[:9]) != "HTTP/1.1 " {
		return 0, fmt.Errorf("http: malformed status line %q", line)
	}
	status := int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	length := int64(-1)
	for {
		line, err = h.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := headerValue(line, "content-length"); ok {
			length = 0
			for _, c := range v {
				if c < '0' || c > '9' {
					return 0, fmt.Errorf("http: bad Content-Length %q", v)
				}
				length = length*10 + int64(c-'0')
			}
		}
	}
	if length < 0 {
		return 0, errors.New("http: reply without Content-Length")
	}
	dst := w
	if status != 200 {
		dst = io.Discard
	}
	var n int64
	for n < length {
		chunk := h.buf
		if rem := length - n; int64(len(chunk)) > rem {
			chunk = chunk[:rem]
		}
		k, err := h.br.Read(chunk)
		if k > 0 {
			dst.Write(chunk[:k])
			n += int64(k)
		}
		if err != nil {
			return n, err
		}
	}
	if status != 200 {
		return 0, &httpError{status: status}
	}
	return n, nil
}

// headerValue matches one "Name: value\r\n" header line
// case-insensitively without allocating.
func headerValue(line []byte, name string) ([]byte, bool) {
	if len(line) <= len(name) || line[len(name)] != ':' {
		return nil, false
	}
	for i := 0; i < len(name); i++ {
		c := line[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return nil, false
		}
	}
	v := line[len(name)+1:]
	for len(v) > 0 && (v[0] == ' ' || v[0] == '\t') {
		v = v[1:]
	}
	for len(v) > 0 && (v[len(v)-1] == '\n' || v[len(v)-1] == '\r' || v[len(v)-1] == ' ') {
		v = v[:len(v)-1]
	}
	return v, true
}
