package chirp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"nest/internal/bufpool"
	"nest/internal/classad"
	"nest/internal/gsi"
	"nest/internal/protocol"
)

// Lot describes a storage guarantee as reported by the server.
type Lot struct {
	ID         string
	Capacity   int64
	Used       int64
	Expires    time.Duration
	BestEffort bool
}

// Entry is one directory listing line.
type Entry struct {
	Name  string
	Size  int64
	IsDir bool
}

// Client is a Chirp client connection.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	user string
	// noTrcx marks a server that rejected the trcx trace-context
	// extension (a seed-protocol peer); further contexts are skipped
	// silently rather than re-probed.
	noTrcx bool
}

// ErrBusy reports the appliance refused the connection to protect
// itself: a connection quota is exhausted or the overload shedder is
// active. Callers should back off and retry, or pick another replica.
var ErrBusy = errors.New("chirp: server busy")

// Dial connects and authenticates. A nil credential requests anonymous
// access.
func Dial(addr string, cred *gsi.Credential) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(conn, cred)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient authenticates over an established connection.
func NewClient(conn net.Conn, cred *gsi.Credential) (*Client, error) {
	c := &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	greeting, err := c.readLine()
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(greeting, "+OK") {
		if strings.HasPrefix(greeting, "-ERR "+strconv.Itoa(protocol.CodeBusy)+" ") {
			return nil, ErrBusy
		}
		return nil, fmt.Errorf("chirp: unexpected greeting %q", greeting)
	}
	if cred != nil {
		err = c.writeLine("auth gsi " + cred.Token())
	} else {
		err = c.writeLine("auth anonymous")
	}
	if err != nil {
		return nil, err
	}
	toks, err := c.readReply()
	if err != nil {
		return nil, err
	}
	if len(toks) >= 2 && toks[0] == "user" {
		c.user, _ = unescape(toks[1])
	}
	return c, nil
}

// User returns the principal the server authenticated us as.
func (c *Client) User() string { return c.user }

// Close tears down the connection (politely when possible).
func (c *Client) Close() error {
	c.writeLine("quit")
	return c.conn.Close()
}

func (c *Client) readLine() (string, error) {
	line, err := c.br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

func (c *Client) writeLine(line string) error {
	if _, err := c.bw.WriteString(line + "\n"); err != nil {
		return err
	}
	return c.bw.Flush()
}

// readReply consumes one reply line, returning its tokens after the
// +OK marker, or an *Error for -ERR.
func (c *Client) readReply() ([]string, error) {
	line, err := c.readLine()
	if err != nil {
		return nil, err
	}
	toks := splitLine(line)
	if len(toks) == 0 {
		return nil, fmt.Errorf("chirp: empty reply")
	}
	switch toks[0] {
	case "+OK", "+DATA":
		return toks[1:], nil
	case "-ERR":
		e := &Error{Code: protocol.CodeInternal, Message: "unknown error"}
		if len(toks) >= 2 {
			if code, err := parseInt(toks[1]); err == nil {
				e.Code = int(code)
			}
		}
		if len(toks) >= 3 {
			if msg, err := unescape(strings.Join(toks[2:], " ")); err == nil {
				e.Message = msg
			}
		}
		return nil, e
	}
	return nil, fmt.Errorf("chirp: malformed reply %q", line)
}

// simple issues a command expecting a bare +OK.
func (c *Client) simple(cmd string) error {
	if err := c.writeLine(cmd); err != nil {
		return err
	}
	_, err := c.readReply()
	return err
}

// Ping checks liveness.
func (c *Client) Ping() error { return c.simple("ping") }

// SetTraceContext propagates a distributed-tracing context: subsequent
// requests on this connection join the given trace as children of the
// parent span (sticky until replaced; zeros clear it). A server that
// predates the extension answers -ERR; the client notes it and skips
// quietly from then on, so tracing degrades to a local tree instead of
// failing the request. It reports whether the peer accepted the
// context.
func (c *Client) SetTraceContext(trace, parent uint64) (bool, error) {
	if c.noTrcx {
		return false, nil
	}
	err := c.simple(fmt.Sprintf("trcx %x %x", trace, parent))
	if err == nil {
		return true, nil
	}
	if _, ok := err.(*Error); ok {
		c.noTrcx = true
		return false, nil
	}
	return false, err
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error { return c.simple("mkdir " + escape(path)) }

// Rmdir removes an empty directory.
func (c *Client) Rmdir(path string) error { return c.simple("rmdir " + escape(path)) }

// Remove deletes a file.
func (c *Client) Remove(path string) error { return c.simple("rm " + escape(path)) }

// List returns directory entries.
func (c *Client) List(path string) ([]Entry, error) {
	if err := c.writeLine("ls " + escape(path)); err != nil {
		return nil, err
	}
	toks, err := c.readReply()
	if err != nil {
		return nil, err
	}
	if len(toks) < 1 {
		return nil, fmt.Errorf("chirp: ls reply missing count")
	}
	n, err := parseInt(toks[0])
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, n)
	for i := int64(0); i < n; i++ {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		f := splitLine(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("chirp: malformed ls entry %q", line)
		}
		size, err := parseInt(f[1])
		if err != nil {
			return nil, err
		}
		name, err := unescape(f[2])
		if err != nil {
			return nil, err
		}
		entries = append(entries, Entry{Name: name, Size: size, IsDir: f[0] == "d"})
	}
	return entries, nil
}

// Stat describes one file or directory.
func (c *Client) Stat(path string) (Entry, error) {
	if err := c.writeLine("stat " + escape(path)); err != nil {
		return Entry{}, err
	}
	toks, err := c.readReply()
	if err != nil {
		return Entry{}, err
	}
	if len(toks) != 3 {
		return Entry{}, fmt.Errorf("chirp: malformed stat reply")
	}
	size, err := parseInt(toks[1])
	if err != nil {
		return Entry{}, err
	}
	name, err := unescape(toks[2])
	if err != nil {
		return Entry{}, err
	}
	return Entry{Name: name, Size: size, IsDir: toks[0] == "d"}, nil
}

// GetTo streams path's contents into w, returning the byte count.
func (c *Client) GetTo(path string, w io.Writer) (int64, error) {
	if err := c.writeLine("get " + escape(path)); err != nil {
		return 0, err
	}
	return c.recvBody(w)
}

// GetRange streams length bytes from offset.
func (c *Client) GetRange(path string, offset, length int64, w io.Writer) (int64, error) {
	if err := c.writeLine(fmt.Sprintf("get %s %d %d", escape(path), offset, length)); err != nil {
		return 0, err
	}
	return c.recvBody(w)
}

func (c *Client) recvBody(w io.Writer) (int64, error) {
	toks, err := c.readReply()
	if err != nil {
		return 0, err
	}
	if len(toks) < 1 {
		return 0, fmt.Errorf("chirp: get reply missing size")
	}
	size, err := parseInt(toks[0])
	if err != nil {
		return 0, err
	}
	// CopyBuffer with a pooled chunk avoids io.CopyN's per-call 32 KB
	// allocation on the body path.
	buf := bufpool.Get(protocol.ChunkSize)
	defer bufpool.Put(buf)
	n, err := io.CopyBuffer(w, io.LimitReader(c.br, size), *buf)
	if err == nil && n < size {
		err = io.EOF // match io.CopyN: short body is an error
	}
	return n, err
}

// Get fetches a whole file into memory.
func (c *Client) Get(path string) ([]byte, error) {
	var sb strings.Builder
	if _, err := c.GetTo(path, &sb); err != nil {
		return nil, err
	}
	return []byte(sb.String()), nil
}

// Put streams size bytes from r into path. lotID may be empty.
func (c *Client) Put(path string, r io.Reader, size int64, lotID string) (int64, error) {
	cmd := fmt.Sprintf("put %s %d", escape(path), size)
	if lotID != "" {
		cmd += " " + lotID
	}
	if err := c.writeLine(cmd); err != nil {
		return 0, err
	}
	// Go-ahead ("+DATA") or an error.
	if _, err := c.readReply(); err != nil {
		return 0, err
	}
	// Copy through a pooled chunk, like recvBody. writerOnly hides
	// bufio.Writer.ReadFrom, which would otherwise hand the copy to
	// TCPConn.ReadFrom and its fresh 32 KB buffer per call.
	buf := bufpool.Get(protocol.ChunkSize)
	n, err := io.CopyBuffer(writerOnly{c.bw}, io.LimitReader(r, size), *buf)
	bufpool.Put(buf)
	if err == nil && n < size {
		err = io.EOF // match io.CopyN: short body is an error
	}
	if err != nil {
		return 0, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	toks, err := c.readReply()
	if err != nil {
		return 0, err
	}
	if len(toks) < 1 {
		return 0, fmt.Errorf("chirp: put reply missing size")
	}
	return parseInt(toks[0])
}

// writerOnly exposes only Write, so io.CopyBuffer uses the buffer it
// is given.
type writerOnly struct{ io.Writer }

// PutBytes uploads a byte slice.
func (c *Client) PutBytes(path string, data []byte, lotID string) error {
	_, err := c.Put(path, strings.NewReader(string(data)), int64(len(data)), lotID)
	return err
}

func (c *Client) lotReply() (Lot, error) {
	toks, err := c.readReply()
	if err != nil {
		return Lot{}, err
	}
	if len(toks) != 5 {
		return Lot{}, fmt.Errorf("chirp: malformed lot reply %v", toks)
	}
	capacity, err1 := parseInt(toks[1])
	used, err2 := parseInt(toks[2])
	expires, err3 := parseInt(toks[3])
	if err1 != nil || err2 != nil || err3 != nil {
		return Lot{}, fmt.Errorf("chirp: malformed lot numbers %v", toks)
	}
	return Lot{
		ID:         toks[0],
		Capacity:   capacity,
		Used:       used,
		Expires:    time.Duration(expires) * time.Millisecond,
		BestEffort: toks[4] == "besteffort",
	}, nil
}

// LotCreate guarantees capacity bytes for duration.
func (c *Client) LotCreate(capacity int64, duration time.Duration) (Lot, error) {
	if err := c.writeLine(fmt.Sprintf("lot_create %d %d", capacity, int64(duration/time.Second))); err != nil {
		return Lot{}, err
	}
	return c.lotReply()
}

// LotStatus fetches one lot.
func (c *Client) LotStatus(id string) (Lot, error) {
	if err := c.writeLine("lot_status " + id); err != nil {
		return Lot{}, err
	}
	return c.lotReply()
}

// LotRenew extends a lot from now.
func (c *Client) LotRenew(id string, duration time.Duration) (Lot, error) {
	if err := c.writeLine(fmt.Sprintf("lot_renew %s %d", id, int64(duration/time.Second))); err != nil {
		return Lot{}, err
	}
	return c.lotReply()
}

// LotAddMember grants user write access to a group lot.
func (c *Client) LotAddMember(id, user string) error {
	return c.simple(fmt.Sprintf("lot_add_member %s %s", id, escape(user)))
}

// LotRemoveMember revokes a group-lot membership.
func (c *Client) LotRemoveMember(id, user string) error {
	return c.simple(fmt.Sprintf("lot_remove_member %s %s", id, escape(user)))
}

// LotRelease terminates a lot.
func (c *Client) LotRelease(id string) error {
	return c.simple("lot_release " + id)
}

// ACLSet grants principal rights on dir ("-" clears the entry).
func (c *Client) ACLSet(dir, principal, rights string) error {
	if rights == "" {
		rights = "-"
	}
	return c.simple(fmt.Sprintf("acl_set %s %s %s", escape(dir), escape(principal), rights))
}

// ACLGet lists the explicit ACL entries on dir as "principal rights"
// lines.
func (c *Client) ACLGet(dir string) ([]string, error) {
	if err := c.writeLine("acl_get " + escape(dir)); err != nil {
		return nil, err
	}
	toks, err := c.readReply()
	if err != nil {
		return nil, err
	}
	if len(toks) < 1 {
		return nil, fmt.Errorf("chirp: acl_get reply missing count")
	}
	n, err := parseInt(toks[0])
	if err != nil {
		return nil, err
	}
	lines := make([]string, 0, n)
	for i := int64(0); i < n; i++ {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		lines = append(lines, line)
	}
	return lines, nil
}

// Statfs fetches the server's resource advertisement.
func (c *Client) Statfs() (*classad.Ad, error) {
	if err := c.writeLine("statfs"); err != nil {
		return nil, err
	}
	toks, err := c.readReply()
	if err != nil {
		return nil, err
	}
	if len(toks) < 1 {
		return nil, fmt.Errorf("chirp: statfs reply missing length")
	}
	n, err := parseInt(toks[0])
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return nil, err
	}
	return classad.Parse(string(buf))
}
