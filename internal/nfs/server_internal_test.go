package nfs

import (
	"bytes"
	"net"
	"testing"

	"nest/internal/bufpool"
	"nest/internal/protocol"
	"nest/internal/xdr"
)

// pipeSession returns a session whose connection is one end of an
// in-memory pipe, and the peer end.
func pipeSession(t *testing.T) (*session, net.Conn) {
	t.Helper()
	srv, cli := net.Pipe()
	t.Cleanup(func() {
		srv.Close()
		cli.Close()
	})
	return &session{conn: srv, fhs: newFHTable()}, cli
}

func readRequest(xid uint32) *protocol.Request {
	return &protocol.Request{
		Op:     protocol.OpGet,
		Path:   "/f",
		Length: protocol.NFSBlockSize,
		Handle: &rpcState{xid: xid, prog: NFSProgram, proc: ProcRead, path: "/f"},
	}
}

// reply runs Reply and returns its error and the record the peer read
// (nil if none arrived).
func reply(s *session, peer net.Conn, req *protocol.Request, rep *protocol.Reply) ([]byte, error) {
	got := make(chan []byte, 1)
	go func() {
		rec, _ := xdr.ReadRecord(peer, 0)
		got <- rec
	}()
	err := s.Reply(req, rep)
	if err != nil {
		peer.Close()
	}
	return <-got, err
}

// TestReadReplyWireFormat pins the one-copy READ reply to the bytes of
// the same reply encoded field by field: RPC header, status, fattr and
// the block as a padded opaque.
func TestReadReplyWireFormat(t *testing.T) {
	s, peer := pipeSession(t)
	req := readRequest(9)
	w, err := s.SendData(req, 3)
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("ab"))
	w.Write([]byte("c"))
	w.Close()
	got, err := reply(s, peer, req, protocol.OKReply())
	if err != nil {
		t.Fatal(err)
	}
	want := xdr.NewEncoder()
	for _, v := range []uint32{9, 1, 0, 0, 0, 0, OK} { // xid, REPLY, accepted, null verifier, SUCCESS
		want.Uint32(v)
	}
	encodeFattr(want, "/f", 3, false, 0)
	want.Opaque([]byte("abc"))
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("READ reply\n got %x\nwant %x", got, want.Bytes())
	}
}

// TestReadBlockReturnedAfterFailure checks that every path after
// SendData gives the pooled block back: a transfer that fails
// mid-block (error reply) and a reply whose write fails.
func TestReadBlockReturnedAfterFailure(t *testing.T) {
	for _, tc := range []struct {
		name     string
		rep      *protocol.Reply
		peerGone bool
	}{
		{"transfer failed", protocol.ErrReply(protocol.CodeInternal, "transfer failed"), false},
		{"connection closed", protocol.OKReply(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, peer := pipeSession(t)
			req := readRequest(11)
			before := bufpool.Stats()
			w, err := s.SendData(req, protocol.NFSBlockSize)
			if err != nil {
				t.Fatal(err)
			}
			w.Write(make([]byte, 100))
			w.Close()
			if tc.peerGone {
				peer.Close()
			}
			rec, err := reply(s, peer, req, tc.rep)
			after := bufpool.Stats()
			if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != 1 || puts != 1 {
				t.Errorf("bufpool gets/puts = %d/%d, want 1/1", gets, puts)
			}
			if tc.peerGone {
				if err == nil {
					t.Error("Reply on a closed connection succeeded")
				}
				return
			}
			d := xdr.NewDecoder(rec)
			for i := 0; i < 6; i++ { // RPC reply header
				d.Uint32()
			}
			if status, err := d.Uint32(); err != nil || status != ErrIO || d.Remaining() != 0 {
				t.Errorf("status = %d, %v (%d bytes left); want ErrIO alone", status, err, d.Remaining())
			}
		})
	}
}

// TestReadBlockRefusesOverflow checks that the staging sink never grows
// past one NFS block: an overflowing write fails whole.
func TestReadBlockRefusesOverflow(t *testing.T) {
	s, peer := pipeSession(t)
	req := readRequest(13)
	w, _ := s.SendData(req, protocol.NFSBlockSize)
	if n, err := w.Write(make([]byte, protocol.NFSBlockSize-1)); err != nil || n != protocol.NFSBlockSize-1 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if n, err := w.Write([]byte{1, 2}); err == nil || n != 0 {
		t.Errorf("overflowing Write = %d, %v; want 0 and an error", n, err)
	}
	if n, err := w.Write([]byte{1}); err != nil || n != 1 {
		t.Errorf("Write filling the block = %d, %v", n, err)
	}
	if _, err := reply(s, peer, req, protocol.OKReply()); err != nil {
		t.Fatal(err)
	}
}
