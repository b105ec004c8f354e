package nfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"path"
	"time"

	"nest/internal/bufpool"
	"nest/internal/gsi"
	"nest/internal/protocol"
	"nest/internal/storage"
	"nest/internal/sunrpc"
	"nest/internal/xdr"
)

// Handler is the NFS+MOUNT protocol module. The file-handle table is
// shared across sessions, as handles must remain valid across client
// reconnects.
type Handler struct {
	fhs *fhTable
}

// NewHandler returns the NFS protocol handler.
func NewHandler() *Handler { return &Handler{fhs: newFHTable()} }

// Proto implements protocol.Handler.
func (h *Handler) Proto() string { return "nfs" }

// NewSession implements protocol.Handler. NFS clients are anonymous
// (paper §3: only Chirp and GridFTP carry GSI).
func (h *Handler) NewSession(conn net.Conn) (protocol.Session, error) {
	return &session{conn: conn, fhs: h.fhs}, nil
}

// rpcState is the per-call context threaded through Request.Handle.
// On READ it is also the SendData sink: the block is staged in a
// pooled buffer that Reply sends and returns.
type rpcState struct {
	xid   uint32
	prog  uint32
	proc  uint32
	path  string
	data  []byte  // WRITE payload (aliases the call record), or staged READ bytes
	block *[]byte // pooled READ staging buffer, owned until Reply
	count int64   // READDIR cookie (starting index)
}

// errBlockOverflow refuses READ data beyond one NFS block.
var errBlockOverflow = errors.New("nfs: read data exceeds the block size")

// Write stages READ data into the pooled block. It never grows the
// block: a write that would overflow it fails whole.
func (st *rpcState) Write(p []byte) (int, error) {
	if len(p) > cap(st.data)-len(st.data) {
		return 0, errBlockOverflow
	}
	st.data = append(st.data, p...)
	return len(p), nil
}

// Close implements io.Closer; Reply frames and sends the block.
func (st *rpcState) Close() error { return nil }

type session struct {
	conn net.Conn
	fhs  *fhTable
	enc  xdr.Encoder // reply scratch: calls on a session run one at a time
}

// Proto implements protocol.Session.
func (s *session) Proto() string { return "nfs" }

// User implements protocol.Session.
func (s *session) User() string { return gsi.Anonymous }

// Close implements protocol.Session.
func (s *session) Close() error { return s.conn.Close() }

func (s *session) writeRecord(rec []byte) error {
	return xdr.WriteRecord(s.conn, rec)
}

// successHeader resets the session's reply encoder and opens an
// accepted, successful reply to xid in it.
func (s *session) successHeader(xid uint32) *xdr.Encoder {
	s.enc.Reset()
	sunrpc.AppendSuccessHeader(&s.enc, xid)
	return &s.enc
}

// statusReply builds a status-only NFS result record.
func (s *session) statusReply(xid uint32, status uint32) []byte {
	e := s.successHeader(xid)
	e.Uint32(status)
	return e.Bytes()
}

// Next implements protocol.Session: read RPC calls until one maps to a
// common-interface request; session-level procedures (NULL, UMNT,
// EXPORT, unsupported procs) are answered inline.
func (s *session) Next() (*protocol.Request, error) {
	for {
		rec, err := xdr.ReadRecord(s.conn, sunrpc.MaxRecord)
		if err != nil {
			return nil, err
		}
		call, rejection, err := sunrpc.ParseCall(rec)
		if err != nil {
			return nil, err
		}
		if rejection != nil {
			if err := s.writeRecord(rejection); err != nil {
				return nil, err
			}
			continue
		}
		req, inline, err := s.translate(call)
		if err != nil {
			return nil, err
		}
		if inline != nil {
			if err := s.writeRecord(inline); err != nil {
				return nil, err
			}
			continue
		}
		return req, nil
	}
}

// translate maps one RPC call to a Request, or produces an inline
// reply record.
func (s *session) translate(call *sunrpc.Call) (*protocol.Request, []byte, error) {
	st := &rpcState{xid: call.XID, prog: call.Prog, proc: call.Proc}
	req := &protocol.Request{Proto: "nfs", User: gsi.Anonymous, Handle: st}
	switch call.Prog {
	case MountProgram:
		if call.Vers != MountVersion {
			return nil, sunrpc.ProgUnavailReply(call.XID), nil
		}
		switch call.Proc {
		case MountNull, MountUmnt:
			return nil, s.successHeader(call.XID).Bytes(), nil
		case MountExport:
			e := s.successHeader(call.XID)
			e.Bool(true) // one export
			e.String("/")
			e.Bool(true) // one group
			e.String("*")
			e.Bool(false) // end groups
			e.Bool(false) // end exports
			return nil, e.Bytes(), nil
		case MountMnt:
			dir, err := call.Args.String(1024)
			if err != nil {
				return nil, sunrpc.GarbageArgsReply(call.XID), nil
			}
			req.Op = protocol.OpStat
			req.Path = dir
			st.path = storage.Clean(dir)
			return req, nil, nil
		}
		return nil, sunrpc.ProcUnavailReply(call.XID), nil
	case NFSProgram:
		if call.Vers != NFSVersion {
			return nil, sunrpc.ProgUnavailReply(call.XID), nil
		}
		return s.translateNFS(call, st, req)
	}
	return nil, sunrpc.ProgUnavailReply(call.XID), nil
}

func (s *session) translateNFS(call *sunrpc.Call, st *rpcState, req *protocol.Request) (*protocol.Request, []byte, error) {
	readFH := func() (string, []byte) {
		raw, err := call.Args.FixedOpaque(FHSize)
		if err != nil {
			return "", sunrpc.GarbageArgsReply(call.XID)
		}
		p, ok := s.fhs.pathFor(FH(raw))
		if !ok {
			return "", s.statusReply(call.XID, ErrStale)
		}
		return p, nil
	}
	readName := func() (string, []byte) {
		name, err := call.Args.String(255)
		if err != nil {
			return "", sunrpc.GarbageArgsReply(call.XID)
		}
		return name, nil
	}
	switch call.Proc {
	case ProcNull:
		return nil, s.successHeader(call.XID).Bytes(), nil
	case ProcGetattr, ProcSetattr:
		p, inline := readFH()
		if inline != nil {
			return nil, inline, nil
		}
		// SETATTR is accepted but attribute changes are ignored (the
		// NeST subset); both return current attributes.
		req.Op = protocol.OpStat
		req.Path = p
		st.path = p
		return req, nil, nil
	case ProcLookup:
		dir, inline := readFH()
		if inline != nil {
			return nil, inline, nil
		}
		name, inline := readName()
		if inline != nil {
			return nil, inline, nil
		}
		req.Op = protocol.OpLookup
		req.Path = path.Join(dir, name)
		st.path = storage.Clean(req.Path)
		return req, nil, nil
	case ProcRead:
		p, inline := readFH()
		if inline != nil {
			return nil, inline, nil
		}
		offset, err1 := call.Args.Uint32()
		count, err2 := call.Args.Uint32()
		if _, err3 := call.Args.Uint32(); err1 != nil || err2 != nil || err3 != nil {
			return nil, sunrpc.GarbageArgsReply(call.XID), nil
		}
		if count > protocol.NFSBlockSize {
			count = protocol.NFSBlockSize
		}
		req.Op = protocol.OpGet
		req.Path = p
		req.Offset = int64(offset)
		req.Length = int64(count)
		st.path = p
		return req, nil, nil
	case ProcWrite:
		p, inline := readFH()
		if inline != nil {
			return nil, inline, nil
		}
		if _, err := call.Args.Uint32(); err != nil { // beginoffset
			return nil, sunrpc.GarbageArgsReply(call.XID), nil
		}
		offset, err1 := call.Args.Uint32()
		if _, err := call.Args.Uint32(); err != nil { // totalcount
			return nil, sunrpc.GarbageArgsReply(call.XID), nil
		}
		data, err2 := call.Args.Opaque(protocol.NFSBlockSize)
		if err1 != nil || err2 != nil {
			return nil, sunrpc.GarbageArgsReply(call.XID), nil
		}
		req.Op = protocol.OpPut
		req.Path = p
		req.Offset = int64(offset)
		req.Size = int64(len(data))
		st.path = p
		st.data = data
		return req, nil, nil
	case ProcCreate, ProcMkdir:
		dir, inline := readFH()
		if inline != nil {
			return nil, inline, nil
		}
		name, inline := readName()
		if inline != nil {
			return nil, inline, nil
		}
		// The trailing sattr is ignored (subset).
		st.path = storage.Clean(path.Join(dir, name))
		if call.Proc == ProcMkdir {
			req.Op = protocol.OpMkdir
		} else {
			req.Op = protocol.OpPut
			req.Size = 0
		}
		req.Path = st.path
		return req, nil, nil
	case ProcRemove, ProcRmdir:
		dir, inline := readFH()
		if inline != nil {
			return nil, inline, nil
		}
		name, inline := readName()
		if inline != nil {
			return nil, inline, nil
		}
		if call.Proc == ProcRmdir {
			req.Op = protocol.OpRmdir
		} else {
			req.Op = protocol.OpRemove
		}
		req.Path = path.Join(dir, name)
		return req, nil, nil
	case ProcRename:
		// Not part of the NeST subset.
		return nil, s.statusReply(call.XID, ErrAcces), nil
	case ProcReaddir:
		p, inline := readFH()
		if inline != nil {
			return nil, inline, nil
		}
		cookieRaw, err := call.Args.FixedOpaque(4)
		if err != nil {
			return nil, sunrpc.GarbageArgsReply(call.XID), nil
		}
		req.Op = protocol.OpList
		req.Path = p
		st.path = p
		st.count = int64(uint32(cookieRaw[0])<<24 | uint32(cookieRaw[1])<<16 |
			uint32(cookieRaw[2])<<8 | uint32(cookieRaw[3]))
		return req, nil, nil
	case ProcStatfs:
		if _, inline := readFH(); inline != nil {
			return nil, inline, nil
		}
		req.Op = protocol.OpStatfs
		return req, nil, nil
	}
	return nil, sunrpc.ProcUnavailReply(call.XID), nil
}

// encodeFattr writes an RFC 1094 fattr for the given file info.
func encodeFattr(e *xdr.Encoder, p string, size int64, isDir bool, mod time.Duration) {
	if isDir {
		e.Uint32(2)       // NFDIR
		e.Uint32(0o40755) // mode
	} else {
		e.Uint32(1)        // NFREG
		e.Uint32(0o100644) // mode
	}
	e.Uint32(1) // nlink
	e.Uint32(0) // uid
	e.Uint32(0) // gid
	e.Uint32(uint32(size))
	e.Uint32(protocol.NFSBlockSize) // blocksize
	e.Uint32(0)                     // rdev
	e.Uint32(uint32((size + 511) / 512))
	e.Uint32(1) // fsid
	e.Uint32(fileID(p))
	sec := uint32(mod / time.Second)
	usec := uint32((mod % time.Second) / time.Microsecond)
	e.Uint32(sec)
	e.Uint32(usec) // atime
	e.Uint32(sec)
	e.Uint32(usec) // mtime
	e.Uint32(sec)
	e.Uint32(usec) // ctime
}

// Reply implements protocol.Session: encode the RPC reply header and
// the proc-appropriate result into one encoder. A READ block goes out
// behind them in the same vectored write, then returns to the pool.
func (s *session) Reply(req *protocol.Request, rep *protocol.Reply) error {
	st, ok := req.Handle.(*rpcState)
	if !ok {
		return fmt.Errorf("nfs: reply without rpc state")
	}
	if st.block != nil {
		defer bufpool.Put(st.block)
	}
	if st.prog == MountProgram {
		return s.replyMount(st, rep)
	}
	if !rep.OK() {
		return s.writeRecord(s.statusReply(st.xid, codeToStatus(rep.Code)))
	}
	e := s.successHeader(st.xid)
	e.Uint32(OK)
	switch st.proc {
	case ProcGetattr, ProcSetattr:
		encodeFattr(e, st.path, rep.Info.Size, rep.Info.IsDir, rep.Info.ModTime)
	case ProcLookup:
		fh := s.fhs.handleFor(st.path)
		e.FixedOpaque(fh[:])
		encodeFattr(e, st.path, rep.Info.Size, rep.Info.IsDir, rep.Info.ModTime)
	case ProcRead:
		size := req.Offset + int64(len(st.data)) // best-effort post-read size
		encodeFattr(e, st.path, size, false, 0)
		e.Uint32(uint32(len(st.data)))
		return xdr.WriteRecordParts(s.conn, e.Bytes(), st.data)
	case ProcWrite:
		size := req.Offset + req.Size
		encodeFattr(e, st.path, size, false, 0)
	case ProcCreate, ProcMkdir:
		fh := s.fhs.handleFor(st.path)
		e.FixedOpaque(fh[:])
		size := int64(0)
		encodeFattr(e, st.path, size, st.proc == ProcMkdir, 0)
	case ProcRemove, ProcRmdir:
		// status only
	case ProcReaddir:
		start := st.count
		for i, entry := range rep.Entries {
			if int64(i) < start {
				continue
			}
			e.Bool(true)
			e.Uint32(fileID(path.Join(st.path, entry.Name)))
			e.String(entry.Name)
			cookie := uint32(i + 1)
			e.FixedOpaque([]byte{
				byte(cookie >> 24), byte(cookie >> 16), byte(cookie >> 8), byte(cookie),
			})
		}
		e.Bool(false) // no more entries
		e.Bool(true)  // eof
	case ProcStatfs:
		total := int64(0)
		if rep.Info != nil {
			total = rep.Info.Size
		}
		e.Uint32(protocol.NFSBlockSize)   // tsize
		e.Uint32(4096)                    // bsize
		e.Uint32(uint32(total / 4096))    // blocks
		e.Uint32(uint32(rep.Size / 4096)) // bfree
		e.Uint32(uint32(rep.Size / 4096)) // bavail
	default:
		return s.writeRecord(sunrpc.ProcUnavailReply(st.xid))
	}
	return s.writeRecord(e.Bytes())
}

func (s *session) replyMount(st *rpcState, rep *protocol.Reply) error {
	if !rep.OK() {
		return s.writeRecord(s.statusReply(st.xid, codeToStatus(rep.Code)))
	}
	if rep.Info != nil && !rep.Info.IsDir {
		return s.writeRecord(s.statusReply(st.xid, ErrNotDir))
	}
	fh := s.fhs.handleFor(st.path)
	e := s.successHeader(st.xid)
	e.Uint32(OK)
	e.FixedOpaque(fh[:])
	return s.writeRecord(e.Bytes())
}

// SendData implements protocol.Session: the READ block (at most 8 KB,
// the count is capped in translate) is staged in a pooled buffer and
// framed into the RPC reply by Reply, which returns the buffer.
func (s *session) SendData(req *protocol.Request, size int64) (io.WriteCloser, error) {
	st := req.Handle.(*rpcState)
	st.block = bufpool.Get(protocol.NFSBlockSize)
	st.data = (*st.block)[:0]
	return st, nil
}

// RecvData implements protocol.Session: WRITE payloads were already
// decoded from the call record.
func (s *session) RecvData(req *protocol.Request) (io.ReadCloser, error) {
	st := req.Handle.(*rpcState)
	return io.NopCloser(bytes.NewReader(st.data)), nil
}
