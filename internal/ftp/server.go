package ftp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"path"
	"strconv"
	"strings"
	"time"

	"nest/internal/gsi"
	"nest/internal/protocol"
)

// acceptTimeout bounds how long a transfer waits for its data
// connection(s).
const acceptTimeout = 30 * time.Second

// Options configures the FTP engine for plain-FTP or GridFTP service.
type Options struct {
	// ProtoName is the protocol class reported to the dispatcher
	// ("ftp" or "gridftp").
	ProtoName string
	// Verifier enables AUTH GSSAPI with GSI credentials.
	Verifier *gsi.Verifier
	// RequireGSI rejects USER/PASS logins (GridFTP policy: GSI only).
	RequireGSI bool
	// AllowAnon accepts anonymous USER/PASS logins (plain FTP policy).
	AllowAnon bool
	// EnableModeE advertises and accepts extended block mode.
	EnableModeE bool
}

// Handler is the FTP protocol module.
type Handler struct {
	opts Options
}

// NewHandler builds an FTP engine handler.
func NewHandler(opts Options) *Handler {
	if opts.ProtoName == "" {
		opts.ProtoName = Proto
	}
	return &Handler{opts: opts}
}

// Proto implements protocol.Handler.
func (h *Handler) Proto() string { return h.opts.ProtoName }

// NewSession implements protocol.Handler: greet and authenticate.
func (h *Handler) NewSession(conn net.Conn) (protocol.Session, error) {
	s := &session{
		opts: h.opts,
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
		cwd:  "/",
		mode: 'S',
		par:  1,
		allo: -1,
	}
	if err := s.reply(220, "NeST FTP server (%s) ready", h.opts.ProtoName); err != nil {
		return nil, err
	}
	if err := s.authenticate(); err != nil {
		return nil, err
	}
	return s, nil
}

// session is one authenticated FTP control connection.
type session struct {
	opts Options
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	user string
	cwd  string
	mode byte  // 'S' stream, 'E' extended block
	par  int   // parallel data streams (MODE E)
	allo int64 // size announced by ALLO for the next STOR; -1 when unset

	pasv   net.Listener // armed by PASV, consumed by the next transfer
	port   string       // armed by PORT, consumed by the next transfer
	dataLn net.Listener // listener a transfer is actively accepting on

	// Sticky trace context set by SITE TRCX: stamped on every request
	// until replaced. Sticky rather than one-shot because third-party
	// orchestration interleaves commands (SIZE between TRCX and RETR).
	trcTrace  uint64
	trcParent uint64
	sawTrcx   bool // peer speaks TRCX: safe to append trcx= reply tails

	inData *protocol.Request
	// dataErrReply overrides the post-transfer reply code on failures
	// detected while opening the data channel.
}

func (s *session) reply(code int, format string, args ...interface{}) error {
	if _, err := fmt.Fprintf(s.bw, "%d %s\r\n", code, fmt.Sprintf(format, args...)); err != nil {
		return err
	}
	return s.bw.Flush()
}

func (s *session) readCommand() (cmd, arg string, err error) {
	line, err := s.br.ReadString('\n')
	if err != nil {
		return "", "", err
	}
	line = strings.TrimRight(line, "\r\n")
	if i := strings.IndexByte(line, ' '); i >= 0 {
		return strings.ToUpper(line[:i]), line[i+1:], nil
	}
	return strings.ToUpper(line), "", nil
}

// authenticate drives the pre-session login exchange.
func (s *session) authenticate() error {
	gsiDone := false
	for {
		cmd, arg, err := s.readCommand()
		if err != nil {
			return err
		}
		switch cmd {
		case "AUTH":
			if !strings.EqualFold(arg, "GSSAPI") || s.opts.Verifier == nil {
				if err := s.reply(504, "unsupported security mechanism"); err != nil {
					return err
				}
				continue
			}
			if err := s.reply(334, "ADAT must follow"); err != nil {
				return err
			}
		case "ADAT":
			if s.opts.Verifier == nil {
				if err := s.reply(503, "AUTH first"); err != nil {
					return err
				}
				continue
			}
			user, err := s.opts.Verifier.Authenticate(arg)
			if err != nil {
				if rerr := s.reply(535, "GSSAPI authentication failed"); rerr != nil {
					return rerr
				}
				continue
			}
			s.user = user
			gsiDone = true
			if err := s.reply(235, "GSSAPI authentication successful"); err != nil {
				return err
			}
			return nil
		case "USER":
			if gsiDone {
				if err := s.reply(230, "already authenticated"); err != nil {
					return err
				}
				return nil
			}
			if s.opts.RequireGSI {
				if err := s.reply(530, "GSI authentication required"); err != nil {
					return err
				}
				continue
			}
			if !s.opts.AllowAnon || !strings.EqualFold(arg, "anonymous") {
				if err := s.reply(530, "only anonymous access permitted"); err != nil {
					return err
				}
				continue
			}
			if err := s.reply(331, "send password"); err != nil {
				return err
			}
		case "PASS":
			if s.opts.RequireGSI {
				if err := s.reply(530, "GSI authentication required"); err != nil {
					return err
				}
				continue
			}
			s.user = gsi.Anonymous
			if err := s.reply(230, "anonymous login ok"); err != nil {
				return err
			}
			return nil
		case "QUIT":
			s.reply(221, "goodbye")
			return io.EOF
		default:
			if err := s.reply(530, "please login first"); err != nil {
				return err
			}
		}
	}
}

// Proto implements protocol.Session.
func (s *session) Proto() string { return s.opts.ProtoName }

// User implements protocol.Session.
func (s *session) User() string { return s.user }

// Close implements protocol.Session.
func (s *session) Close() error {
	if s.pasv != nil {
		s.pasv.Close()
		s.pasv = nil
	}
	if s.dataLn != nil {
		s.dataLn.Close()
	}
	return s.conn.Close()
}

// resolve maps an FTP pathname against the working directory.
func (s *session) resolve(p string) string {
	if p == "" {
		return s.cwd
	}
	if strings.HasPrefix(p, "/") {
		return path.Clean(p)
	}
	return path.Clean(path.Join(s.cwd, p))
}

// Next implements protocol.Session: session-local commands are
// answered inline; storage and transfer commands become common
// requests.
func (s *session) Next() (*protocol.Request, error) {
	for {
		cmd, arg, err := s.readCommand()
		if err != nil {
			return nil, err
		}
		req := &protocol.Request{
			Proto:      s.opts.ProtoName,
			User:       s.user,
			TraceID:    s.trcTrace,
			ParentSpan: s.trcParent,
		}
		switch cmd {
		case "NOOP":
			err = s.reply(200, "ok")
		case "SYST":
			err = s.reply(215, "UNIX Type: L8 (NeST)")
		case "FEAT":
			feats := "211-SIZE\r\n211-PASV\r\n211-SITE TRCX\r\n"
			if s.opts.EnableModeE {
				feats += "211-MODE E\r\n211-PARALLEL\r\n"
			}
			if _, err = s.bw.WriteString(feats); err == nil {
				err = s.reply(211, "end")
			}
		case "TYPE":
			err = s.reply(200, "type set to %s", arg)
		case "MODE":
			m := strings.ToUpper(strings.TrimSpace(arg))
			switch {
			case m == "S":
				s.mode = 'S'
				err = s.reply(200, "mode set to S")
			case m == "E" && s.opts.EnableModeE:
				s.mode = 'E'
				err = s.reply(200, "mode set to E")
			default:
				err = s.reply(504, "unsupported mode %q", arg)
			}
		case "OPTS":
			err = s.handleOpts(arg)
		case "SITE":
			// SITE TRCX <trace-hex> <parent-span-hex> carries distributed
			// trace context. Servers without the extension answer any SITE
			// with 502, which clients treat as "peer does not trace".
			err = s.handleSite(arg)
		case "PWD":
			err = s.reply(257, "%q is the current directory", s.cwd)
		case "CWD":
			req.Op = protocol.OpStat
			req.Path = s.resolve(arg)
			req.Handle = tagCWD
			return req, nil
		case "CDUP":
			req.Op = protocol.OpStat
			req.Path = s.resolve("..")
			req.Handle = tagCWD
			return req, nil
		case "PASV":
			err = s.handlePasv()
		case "PORT":
			addr, perr := parseHostPort(arg)
			if perr != nil {
				err = s.reply(501, "%v", perr)
				break
			}
			s.port = addr
			err = s.reply(200, "PORT command successful")
		case "SPOR": // striped PORT: same single-address form here
			addr, perr := parseHostPort(arg)
			if perr != nil {
				err = s.reply(501, "%v", perr)
				break
			}
			s.port = addr
			err = s.reply(200, "SPOR command successful")
		case "SPAS":
			err = s.handlePasv() // single listener accepting stripes
		case "ALLO":
			// ALLO announces the size of the next STOR. Stream-mode FTP
			// frames the end of data by closing the connection, so the
			// size is advisory there — but a striped MODE E STOR needs it
			// up front to partition the file before data arrives.
			n, perr := strconv.ParseInt(strings.TrimSpace(arg), 10, 64)
			if perr != nil || n < 0 {
				err = s.reply(501, "bad ALLO size %q", arg)
				break
			}
			s.allo = n
			err = s.reply(200, "ALLO %d ok", n)
		case "RETR":
			req.Op = protocol.OpGet
			req.Path = s.resolve(arg)
			if s.mode == 'E' {
				req.Stripes = s.par
			}
			return req, nil
		case "STOR":
			req.Op = protocol.OpPut
			req.Path = s.resolve(arg)
			req.Size = s.allo
			s.allo = -1
			if s.mode == 'E' {
				req.Stripes = s.par
			}
			return req, nil
		case "LIST", "NLST":
			req.Op = protocol.OpList
			req.Path = s.resolve(arg)
			if cmd == "LIST" {
				req.Handle = tagLIST
			} else {
				req.Handle = tagNLST
			}
			return req, nil
		case "SIZE":
			req.Op = protocol.OpStat
			req.Path = s.resolve(arg)
			req.Handle = tagSIZE
			return req, nil
		case "DELE":
			req.Op = protocol.OpRemove
			req.Path = s.resolve(arg)
			return req, nil
		case "MKD":
			req.Op = protocol.OpMkdir
			req.Path = s.resolve(arg)
			return req, nil
		case "RMD":
			req.Op = protocol.OpRmdir
			req.Path = s.resolve(arg)
			return req, nil
		case "QUIT":
			req.Op = protocol.OpQuit
			return req, nil
		default:
			err = s.reply(502, "command %q not implemented", cmd)
		}
		if err != nil {
			return nil, err
		}
	}
}

// Handle tags distinguishing FTP commands that share a common op.
type handleTag int

const (
	tagNone handleTag = iota
	tagCWD
	tagSIZE
	tagLIST
	tagNLST
)

// handleSite dispatches SITE subcommands. Only TRCX (trace-context
// propagation) is understood; anything else gets the same 502 an
// extension-free server would send for SITE itself.
func (s *session) handleSite(arg string) error {
	toks := strings.Fields(arg)
	if len(toks) == 0 || !strings.EqualFold(toks[0], "TRCX") {
		return s.reply(502, "SITE subcommand not implemented")
	}
	if len(toks) != 3 {
		return s.reply(501, "usage: SITE TRCX <trace-hex> <parent-span-hex>")
	}
	trace, err1 := strconv.ParseUint(toks[1], 16, 64)
	parent, err2 := strconv.ParseUint(toks[2], 16, 64)
	if err1 != nil || err2 != nil {
		return s.reply(501, "bad trace context (want hex ids)")
	}
	s.trcTrace, s.trcParent = trace, parent
	s.sawTrcx = true
	return s.reply(200, "trace context set")
}

func (s *session) handleOpts(arg string) error {
	// "OPTS RETR Parallelism=n,n,n;" per the GridFTP draft.
	lower := strings.ToLower(arg)
	if i := strings.Index(lower, "parallelism="); i >= 0 && s.opts.EnableModeE {
		spec := strings.TrimSuffix(lower[i+len("parallelism="):], ";")
		first := strings.Split(spec, ",")[0]
		n, err := strconv.Atoi(strings.TrimSpace(first))
		if err != nil || n < 1 || n > 64 {
			return s.reply(501, "bad parallelism %q", arg)
		}
		s.par = n
		return s.reply(200, "parallelism set to %d", n)
	}
	return s.reply(501, "option not understood")
}

func (s *session) handlePasv() error {
	if s.pasv != nil {
		s.pasv.Close()
	}
	host, _, _ := net.SplitHostPort(s.conn.LocalAddr().String())
	ln, err := net.Listen("tcp4", net.JoinHostPort(host, "0"))
	if err != nil {
		return s.reply(425, "cannot open passive port: %v", err)
	}
	s.pasv = ln
	hp, err := hostPort(ln.Addr())
	if err != nil {
		ln.Close()
		s.pasv = nil
		return s.reply(425, "%v", err)
	}
	return s.reply(227, "Entering Passive Mode (%s)", hp)
}

// openDataConns establishes n data connections for the next transfer.
func (s *session) openDataConns(n int) ([]net.Conn, error) {
	if n < 1 {
		n = 1
	}
	if s.pasv != nil {
		ln := s.pasv
		s.pasv = nil
		s.dataLn = ln
		defer func() {
			s.dataLn = nil
			ln.Close()
		}()
		conns := make([]net.Conn, 0, n)
		for i := 0; i < n; i++ {
			if tl, ok := ln.(*net.TCPListener); ok {
				tl.SetDeadline(time.Now().Add(acceptTimeout))
			}
			conn, err := ln.Accept()
			if err != nil {
				for _, c := range conns {
					c.Close()
				}
				return nil, err
			}
			conns = append(conns, conn)
		}
		return conns, nil
	}
	if s.port != "" {
		addr := s.port
		s.port = ""
		conns := make([]net.Conn, 0, n)
		for i := 0; i < n; i++ {
			conn, err := net.DialTimeout("tcp", addr, acceptTimeout)
			if err != nil {
				for _, c := range conns {
					c.Close()
				}
				return nil, err
			}
			conns = append(conns, conn)
		}
		return conns, nil
	}
	return nil, fmt.Errorf("ftp: no data connection arranged (use PASV or PORT)")
}

// SendData implements protocol.Session for RETR.
func (s *session) SendData(req *protocol.Request, size int64) (io.WriteCloser, error) {
	par := 1
	if s.mode == 'E' {
		par = s.par
	}
	if err := s.reply(150, "opening data connection (%d bytes)", size); err != nil {
		return nil, err
	}
	conns, err := s.openDataConns(par)
	if err != nil {
		s.reply(425, "cannot open data connection: %v", err)
		return nil, err
	}
	s.inData = req
	if s.mode == 'E' {
		return newModeESender(conns), nil
	}
	return &connWriter{conn: conns[0]}, nil
}

// RecvData implements protocol.Session for STOR.
func (s *session) RecvData(req *protocol.Request) (io.ReadCloser, error) {
	if err := s.reply(150, "ready to receive data"); err != nil {
		return nil, err
	}
	if s.mode == 'E' {
		// Streams attach as they arrive; the count is announced by the
		// EOF block. With PASV we keep accepting in the background until
		// the deadline or the receiver's Close shuts the listener.
		recv := newModeEReceiver()
		if s.pasv != nil {
			ln := s.pasv
			s.pasv = nil
			recv.ln = ln
			go func() {
				defer ln.Close()
				var backoff time.Duration
				for {
					if tl, ok := ln.(*net.TCPListener); ok {
						tl.SetDeadline(time.Now().Add(acceptTimeout))
					}
					conn, err := ln.Accept()
					if err != nil {
						// A transient accept failure (aborted handshake in
						// the backlog, descriptor exhaustion) must not
						// strand the stripes still dialing in: back off
						// and retry. The deadline timeout and listener
						// close remain the loop's exits.
						var ne net.Error
						if !errors.Is(err, net.ErrClosed) && errors.As(err, &ne) && !ne.Timeout() {
							if backoff <= 0 {
								backoff = 5 * time.Millisecond
							} else if backoff < time.Second {
								backoff *= 2
							}
							time.Sleep(backoff)
							continue
						}
						return
					}
					backoff = 0
					recv.attach(conn)
				}
			}()
		} else {
			conns, err := s.openDataConns(s.par)
			if err != nil {
				s.reply(425, "cannot open data connection: %v", err)
				return nil, err
			}
			for _, c := range conns {
				recv.attach(c)
			}
		}
		s.inData = req
		return recv, nil
	}
	conns, err := s.openDataConns(1)
	if err != nil {
		s.reply(425, "cannot open data connection: %v", err)
		return nil, err
	}
	s.inData = req
	return &connReader{conn: conns[0]}, nil
}

// Reply implements protocol.Session.
func (s *session) Reply(req *protocol.Request, rep *protocol.Reply) error {
	if s.inData == req {
		s.inData = nil
		if rep.OK() {
			if s.sawTrcx && req.TraceID != 0 {
				// Echo the trace identity so orchestrators that did not
				// mint the trace themselves can still link this leg. Only
				// emitted once the peer has spoken TRCX, so sessions with
				// seed-era clients see byte-identical replies.
				return s.reply(226, "transfer complete (%d bytes) trcx=%x", rep.Size, req.TraceID)
			}
			return s.reply(226, "transfer complete (%d bytes)", rep.Size)
		}
		return s.reply(451, "transfer failed: %s", rep.Message)
	}
	tag, _ := req.Handle.(handleTag)
	if !rep.OK() {
		switch {
		case req.Op == protocol.OpPut && rep.Code == protocol.CodeNoSpace ||
			rep.Code == protocol.CodeNoLot:
			return s.reply(452, "insufficient storage: %s", rep.Message)
		case rep.Code == protocol.CodePermission:
			return s.reply(550, "permission denied: %s", rep.Message)
		default:
			return s.reply(550, "%s", rep.Message)
		}
	}
	switch req.Op {
	case protocol.OpQuit:
		return s.reply(221, "goodbye")
	case protocol.OpStat:
		switch tag {
		case tagCWD:
			if !rep.Info.IsDir {
				return s.reply(550, "%s: not a directory", req.Path)
			}
			s.cwd = req.Path
			return s.reply(250, "directory changed to %s", s.cwd)
		case tagSIZE:
			if rep.Info.IsDir {
				return s.reply(550, "%s: is a directory", req.Path)
			}
			return s.reply(213, "%d", rep.Info.Size)
		}
		return s.reply(213, "%d", rep.Size)
	case protocol.OpList:
		return s.sendListing(rep, tag == tagLIST)
	case protocol.OpMkdir:
		return s.reply(257, "%q created", req.Path)
	case protocol.OpRmdir, protocol.OpRemove:
		return s.reply(250, "ok")
	}
	return s.reply(200, "ok")
}

// sendListing performs the directory-listing data phase (FTP transfers
// listings over the data channel even though NeST treats them as
// storage requests).
func (s *session) sendListing(rep *protocol.Reply, long bool) error {
	if err := s.reply(150, "opening data connection for listing"); err != nil {
		return err
	}
	conns, err := s.openDataConns(1)
	if err != nil {
		return s.reply(425, "cannot open data connection: %v", err)
	}
	conn := conns[0]
	bw := bufio.NewWriter(conn)
	for _, e := range rep.Entries {
		var line string
		if long {
			kind := "-"
			if e.IsDir {
				kind = "d"
			}
			owner := e.Owner
			if owner == "" {
				owner = "nest"
			}
			line = fmt.Sprintf("%srw-r--r--   1 %-8s nest %12d Jan  1 00:00 %s\r\n",
				kind, owner, e.Size, e.Name)
		} else {
			line = e.Name + "\r\n"
		}
		if _, err := bw.WriteString(line); err != nil {
			conn.Close()
			return s.reply(451, "listing failed: %v", err)
		}
	}
	if err := bw.Flush(); err != nil {
		conn.Close()
		return s.reply(451, "listing failed: %v", err)
	}
	conn.Close()
	return s.reply(226, "listing complete")
}

// connWriter closes the data connection when the transfer ends (stream
// mode signals EOF by close).
type connWriter struct{ conn net.Conn }

func (w *connWriter) Write(p []byte) (int, error) { return w.conn.Write(p) }
func (w *connWriter) Close() error                { return w.conn.Close() }

// connReader reads until the peer closes (stream mode).
type connReader struct{ conn net.Conn }

func (r *connReader) Read(p []byte) (int, error) { return r.conn.Read(p) }
func (r *connReader) Close() error               { return r.conn.Close() }
