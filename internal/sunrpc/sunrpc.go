// Package sunrpc implements the ONC/Sun RPC protocol (RFC 1057) over
// TCP with record marking, as the substrate for NeST's NFS and MOUNT
// services. It supports AUTH_NULL and AUTH_UNIX credentials.
package sunrpc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"nest/internal/xdr"
)

// RPC message types.
const (
	msgCall  = 0
	msgReply = 1
)

// Reply status.
const (
	replyAccepted = 0
	replyDenied   = 1
)

// Accept status.
const (
	acceptSuccess      = 0
	acceptProgUnavail  = 1
	acceptProgMismatch = 2
	acceptProcUnavail  = 3
	acceptGarbageArgs  = 4
	acceptSystemErr    = 5
)

// Auth flavors.
const (
	AuthNull = 0
	AuthUnix = 1
)

// MaxRecord bounds a single RPC record (1 MB). NFS v2 records are far
// smaller — one 8 KB block plus headers — so this only caps what a
// broken or hostile peer can make the reader allocate.
const MaxRecord = 1 << 20

// Errors returned by the client for non-success accept states.
var (
	ErrProgUnavail = errors.New("sunrpc: program unavailable")
	ErrProcUnavail = errors.New("sunrpc: procedure unavailable")
	ErrGarbageArgs = errors.New("sunrpc: garbage arguments")
	ErrSystemErr   = errors.New("sunrpc: system error")
	ErrDenied      = errors.New("sunrpc: call denied")
)

// Cred carries the caller's credentials as presented on the wire.
type Cred struct {
	Flavor  uint32
	Machine string // AUTH_UNIX machine name
	UID     uint32
	GID     uint32
}

// Call is a decoded RPC call.
type Call struct {
	XID  uint32
	Prog uint32
	Vers uint32
	Proc uint32
	Cred Cred
	Args *xdr.Decoder
}

// ParseCall decodes one RPC call record. A nil call with a non-nil
// rejection record is returned for protocol-level rejections (RPC
// version mismatch).
func ParseCall(rec []byte) (call *Call, rejection []byte, err error) {
	d := xdr.NewDecoder(rec)
	xid, err := d.Uint32()
	if err != nil {
		return nil, nil, err
	}
	mtype, err := d.Uint32()
	if err != nil {
		return nil, nil, err
	}
	if mtype != msgCall {
		return nil, nil, fmt.Errorf("sunrpc: unexpected message type %d", mtype)
	}
	rpcvers, err := d.Uint32()
	if err != nil {
		return nil, nil, err
	}
	if rpcvers != 2 {
		return nil, denied(xid), nil
	}
	prog, err := d.Uint32()
	if err != nil {
		return nil, nil, err
	}
	vers, err := d.Uint32()
	if err != nil {
		return nil, nil, err
	}
	proc, err := d.Uint32()
	if err != nil {
		return nil, nil, err
	}
	cred, err := decodeAuth(d)
	if err != nil {
		return nil, nil, err
	}
	if _, err := decodeAuth(d); err != nil { // verifier, ignored
		return nil, nil, err
	}
	return &Call{XID: xid, Prog: prog, Vers: vers, Proc: proc, Cred: cred, Args: d}, nil, nil
}

// Reply builders for servers that drive RPC records directly (NeST's
// NFS protocol handler).

// AppendSuccessHeader encodes the header of an accepted, successful
// reply into e; the procedure's results follow in the same encoder.
func AppendSuccessHeader(e *xdr.Encoder, xid uint32) { appendAccepted(e, xid, acceptSuccess) }

// ProgUnavailReply frames a PROG_UNAVAIL rejection.
func ProgUnavailReply(xid uint32) []byte { return accepted(xid, acceptProgUnavail) }

// ProcUnavailReply frames a PROC_UNAVAIL rejection.
func ProcUnavailReply(xid uint32) []byte { return accepted(xid, acceptProcUnavail) }

// GarbageArgsReply frames a GARBAGE_ARGS rejection.
func GarbageArgsReply(xid uint32) []byte { return accepted(xid, acceptGarbageArgs) }

// decodeAuth reads the credential (flavor + opaque body). The verifier
// is left for the caller.
func decodeAuth(d *xdr.Decoder) (Cred, error) {
	var c Cred
	flavor, err := d.Uint32()
	if err != nil {
		return c, err
	}
	c.Flavor = flavor
	body, err := d.Opaque(400)
	if err != nil {
		return c, err
	}
	if flavor == AuthUnix {
		bd := xdr.NewDecoder(body)
		if _, err := bd.Uint32(); err != nil { // stamp
			return c, err
		}
		if c.Machine, err = bd.String(255); err != nil {
			return c, err
		}
		if c.UID, err = bd.Uint32(); err != nil {
			return c, err
		}
		if c.GID, err = bd.Uint32(); err != nil {
			return c, err
		}
		// auxiliary gids ignored
	}
	return c, nil
}

func appendAccepted(e *xdr.Encoder, xid, stat uint32) {
	e.Uint32(xid)
	e.Uint32(msgReply)
	e.Uint32(replyAccepted)
	e.Uint32(AuthNull) // verifier flavor
	e.Uint32(0)        // verifier length
	e.Uint32(stat)
}

func accepted(xid, stat uint32) []byte {
	e := xdr.NewEncoder()
	appendAccepted(e, xid, stat)
	return e.Bytes()
}

func denied(xid uint32) []byte {
	e := xdr.NewEncoder()
	e.Uint32(xid)
	e.Uint32(msgReply)
	e.Uint32(replyDenied)
	e.Uint32(0) // RPC_MISMATCH
	e.Uint32(2) // low
	e.Uint32(2) // high
	return e.Bytes()
}

// Client issues RPC calls over a single TCP connection. It is safe for
// sequential use; calls are synchronous.
type Client struct {
	mu   sync.Mutex
	conn io.ReadWriteCloser
	xid  uint32
	hdr  xdr.Encoder // call header scratch, reused under mu
	Cred Cred        // credentials attached to every call
}

// NewClient wraps an established connection.
func NewClient(conn io.ReadWriteCloser) *Client {
	return &Client{conn: conn, xid: 1, Cred: Cred{Flavor: AuthNull}}
}

// Dial connects to addr and returns a client.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// Close releases the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// Call invokes (prog, vers, proc) with encoded args and returns a
// decoder over the results. The header goes out in front of args in
// one vectored write, so args are never copied. The decoder reads a
// record of its own, so byte slices it returns belong to the caller.
func (c *Client) Call(prog, vers, proc uint32, args []byte) (*xdr.Decoder, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.xid++
	e := &c.hdr
	e.Reset()
	e.Uint32(c.xid)
	e.Uint32(msgCall)
	e.Uint32(2) // RPC version
	e.Uint32(prog)
	e.Uint32(vers)
	e.Uint32(proc)
	encodeAuth(e, c.Cred)
	e.Uint32(AuthNull) // verifier
	e.Uint32(0)
	if err := xdr.WriteRecordParts(c.conn, e.Bytes(), args); err != nil {
		return nil, err
	}
	rec, err := xdr.ReadRecord(c.conn, MaxRecord)
	if err != nil {
		return nil, err
	}
	d := xdr.NewDecoder(rec)
	xid, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if xid != c.xid {
		return nil, fmt.Errorf("sunrpc: reply xid %d, want %d", xid, c.xid)
	}
	if mtype, err := d.Uint32(); err != nil || mtype != msgReply {
		return nil, fmt.Errorf("sunrpc: bad reply message type (%v)", err)
	}
	stat, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if stat == replyDenied {
		return nil, ErrDenied
	}
	if _, err := d.Uint32(); err != nil { // verifier flavor
		return nil, err
	}
	if _, err := d.Opaque(400); err != nil { // verifier body
		return nil, err
	}
	astat, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	switch astat {
	case acceptSuccess:
		return d, nil
	case acceptProgUnavail, acceptProgMismatch:
		return nil, ErrProgUnavail
	case acceptProcUnavail:
		return nil, ErrProcUnavail
	case acceptGarbageArgs:
		return nil, ErrGarbageArgs
	}
	return nil, ErrSystemErr
}

func encodeAuth(e *xdr.Encoder, c Cred) {
	e.Uint32(c.Flavor)
	switch c.Flavor {
	case AuthUnix:
		// Body length: stamp, machine name (padded), uid, gid, gids.
		e.Uint32(uint32(20 + (len(c.Machine)+3)&^3))
		e.Uint32(0) // stamp
		e.String(c.Machine)
		e.Uint32(c.UID)
		e.Uint32(c.GID)
		e.Uint32(0) // no auxiliary gids
	default:
		e.Uint32(0) // empty body
	}
}
