package sunrpc

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"

	"nest/internal/xdr"
)

// Handler executes one procedure, encoding results into reply.
// Returning an error produces a SYSTEM_ERR accept status.
type Handler func(call *Call, reply *xdr.Encoder) error

// Server dispatches RPC calls to registered program handlers. It is a
// test peer for Client: the appliance's NFS handler drives records
// itself through ParseCall and the reply builders.
type Server struct {
	mu       sync.Mutex
	programs map[progVers]Handler
	ln       net.Listener
	closed   atomic.Bool
	wg       sync.WaitGroup
}

type progVers struct {
	prog, vers uint32
}

// NewServer returns a server with no registered programs.
func NewServer() *Server {
	return &Server{programs: make(map[progVers]Handler)}
}

// Register installs handler for (program, version).
func (s *Server) Register(prog, vers uint32, handler Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.programs[progVers{prog, vers}] = handler
}

// Serve accepts connections on ln until Close. Each connection is
// served by its own goroutine; calls on one connection execute
// sequentially in arrival order.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

// Close stops accepting and waits for in-flight connections.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
}

func (s *Server) serveConn(conn net.Conn) {
	for {
		rec, err := xdr.ReadRecord(conn, MaxRecord)
		if err != nil {
			return
		}
		resp, err := s.dispatch(rec)
		if err != nil {
			return
		}
		if err := xdr.WriteRecord(conn, resp); err != nil {
			return
		}
	}
}

// dispatch decodes one call record and produces the reply record.
func (s *Server) dispatch(rec []byte) ([]byte, error) {
	call, rejection, err := ParseCall(rec)
	if err != nil {
		return nil, err
	}
	if rejection != nil {
		return rejection, nil
	}
	s.mu.Lock()
	handler, ok := s.programs[progVers{call.Prog, call.Vers}]
	s.mu.Unlock()
	if !ok {
		return ProgUnavailReply(call.XID), nil
	}
	reply := xdr.NewEncoder()
	AppendSuccessHeader(reply, call.XID)
	if err := handler(call, reply); err != nil {
		if errors.Is(err, ErrProcUnavail) {
			return ProcUnavailReply(call.XID), nil
		}
		if errors.Is(err, ErrGarbageArgs) {
			return GarbageArgsReply(call.XID), nil
		}
		return accepted(call.XID, acceptSystemErr), nil
	}
	return reply.Bytes(), nil
}
