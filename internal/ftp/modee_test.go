package ftp

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"nest/internal/gsi"
	"nest/internal/nesttest"
)

// pipeFanout wires a MODE E sender to a receiver over n in-memory
// stream pairs.
func pipeFanout(n int) (*modeESender, *modeEReceiver) {
	recv := newModeEReceiver()
	conns := make([]net.Conn, n)
	for i := range conns {
		a, b := net.Pipe()
		conns[i] = a
		recv.attach(b)
	}
	return newModeESender(conns), recv
}

func TestModeESingleStream(t *testing.T) {
	sender, recv := pipeFanout(1)
	payload := bytes.Repeat([]byte("mode-e"), 1000)
	go func() {
		sender.Write(payload)
		sender.Close()
	}()
	got, err := io.ReadAll(recv)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("reassembly = %d bytes, %v", len(got), err)
	}
}

func TestModeEEmptyTransfer(t *testing.T) {
	sender, recv := pipeFanout(3)
	go sender.Close() // EODs + EOF only
	got, err := io.ReadAll(recv)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty transfer = %d bytes, %v", len(got), err)
	}
}

func TestModeECloseIdempotent(t *testing.T) {
	sender, recv := pipeFanout(2)
	go func() {
		sender.Close()
		sender.Close() // second close is a no-op
	}()
	if _, err := io.ReadAll(recv); err != nil {
		t.Fatal(err)
	}
	recv.Close()
	recv.Close()
}

// Property: any payload split into arbitrary write sizes over an
// arbitrary stripe count reassembles exactly.
func TestQuickModeEReassembly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(payload []byte, stripes8 uint8) bool {
		stripes := int(stripes8%5) + 1
		sender, recv := pipeFanout(stripes)
		go func() {
			rest := payload
			for len(rest) > 0 {
				n := rng.Intn(len(rest)) + 1
				sender.Write(rest[:n])
				rest = rest[n:]
			}
			sender.Close()
		}()
		got, err := io.ReadAll(recv)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestModeEGapDetected(t *testing.T) {
	// A receiver that sees EOF+EODs but a missing block must report a
	// gap rather than returning short data silently.
	a, b := net.Pipe()
	recv := newModeEReceiver()
	recv.attach(b)
	go func() {
		// Block at offset 100 only: offset 0..99 never arrives.
		writeBlockHeader(a, blockHeader{Count: 4, Offset: 100})
		a.Write([]byte("data"))
		writeBlockHeader(a, blockHeader{Desc: DescEOD | DescEOF, Offset: 1})
		a.Close()
	}()
	_, err := io.ReadAll(recv)
	if err == nil {
		t.Fatal("gap not detected")
	}
}

func TestHostPortRoundTrip(t *testing.T) {
	addr := &net.TCPAddr{IP: net.IPv4(10, 1, 2, 3), Port: 51234}
	hp, err := hostPort(addr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseHostPort(hp)
	if err != nil || back != "10.1.2.3:51234" {
		t.Fatalf("round trip = %q, %v", back, err)
	}
	for _, bad := range []string{"", "1,2,3", "1,2,3,4,5,999", "a,b,c,d,e,f"} {
		if _, err := parseHostPort(bad); err == nil {
			t.Errorf("parseHostPort(%q) succeeded", bad)
		}
	}
}

// TestModeEOutOfOrderReassembly delivers one payload's blocks shuffled
// across three streams, including one block transmitted twice at the
// same offset: the receiver must reassemble the exact byte stream,
// replacing (not duplicating) the retransmitted block. All blocks are
// ingested before the first Read so the duplicate deterministically
// lands on a still-pending offset.
func TestModeEOutOfOrderReassembly(t *testing.T) {
	payload := make([]byte, 10*1024)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	recv := newModeEReceiver()
	conns := make([]net.Conn, 3)
	for i := range conns {
		a, b := net.Pipe()
		conns[i] = a
		recv.attach(b)
	}
	type blk struct {
		off  int
		data []byte
	}
	var blocks []blk
	for off := 0; off < len(payload); off += 1024 {
		blocks = append(blocks, blk{off, payload[off : off+1024]})
	}
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	for i, bl := range blocks {
		conn := conns[i%len(conns)]
		reps := 1
		if i == 4 {
			reps = 2 // duplicate offset from a "retransmitting" sender
		}
		for r := 0; r < reps; r++ {
			if err := writeBlockHeader(conn, blockHeader{Count: uint64(len(bl.data)), Offset: uint64(bl.off)}); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(bl.data); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, conn := range conns {
		h := blockHeader{Desc: DescEOD}
		if i == 0 {
			h.Desc |= DescEOF
			h.Offset = uint64(len(conns))
		}
		if err := writeBlockHeader(conn, h); err != nil {
			t.Fatal(err)
		}
	}
	got, err := io.ReadAll(recv)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("out-of-order reassembly: got %d bytes, want %d (equal=%v)",
			len(got), len(payload), bytes.Equal(got, payload))
	}
}

// TestModeEStripedSinkSource exercises the striped wire path end to
// end: two stripe writers (SinkAt) framing disjoint ranges concurrently
// over two connections, two range readers (SourceAt) consuming them
// concurrently on the receiving side.
func TestModeEStripedSinkSource(t *testing.T) {
	const half = 8192
	payload := make([]byte, 2*half)
	rng := rand.New(rand.NewSource(9))
	rng.Read(payload)
	sender, recv := pipeFanout(2)
	recv.SetStripeBounds([]int64{half})

	var writers sync.WaitGroup
	for i, wsize := range []int{1000, 777} {
		w := sender.SinkAt(int64(i * half))
		part := payload[i*half : (i+1)*half]
		writers.Add(1)
		go func(w io.Writer, part []byte, wsize int) {
			defer writers.Done()
			for len(part) > 0 {
				n := wsize
				if n > len(part) {
					n = len(part)
				}
				if _, err := w.Write(part[:n]); err != nil {
					t.Error(err)
					return
				}
				part = part[n:]
			}
		}(w, part, wsize)
	}
	go func() {
		writers.Wait()
		sender.Close()
	}()

	got := make([]byte, 2*half)
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		r := recv.SourceAt(int64(i*half), half)
		dst := got[i*half : (i+1)*half]
		readers.Add(1)
		go func(r io.Reader, dst []byte) {
			defer readers.Done()
			if _, err := io.ReadFull(r, dst); err != nil {
				t.Error(err)
				return
			}
			// The range reader must EOF exactly at the range end.
			if n, err := r.Read(make([]byte, 1)); n != 0 || err != io.EOF {
				t.Errorf("read past range end: n=%d err=%v", n, err)
			}
		}(r, dst)
	}
	readers.Wait()
	recv.Close()
	if !bytes.Equal(got, payload) {
		t.Fatal("striped sink/source round trip corrupted data")
	}
}

// TestModeEBoundSplitting feeds a *sequential* MODE E sender (blocks
// straddle stripe boundaries) into a receiver with stripe bounds set:
// ingest must split straddling blocks so each range reader sees exactly
// its bytes.
func TestModeEBoundSplitting(t *testing.T) {
	const bound = 4096
	payload := make([]byte, 3*bound)
	for i := range payload {
		payload[i] = byte(i)
	}
	sender, recv := pipeFanout(1)
	recv.SetStripeBounds([]int64{bound, 2 * bound})
	go func() {
		// 3000-byte writes never align with the 4096-byte bounds, so
		// most blocks straddle one (the last straddles none).
		rest := payload
		for len(rest) > 0 {
			n := 3000
			if n > len(rest) {
				n = len(rest)
			}
			if _, err := sender.Write(rest[:n]); err != nil {
				t.Error(err)
				return
			}
			rest = rest[n:]
		}
		sender.Close()
	}()
	got := make([]byte, len(payload))
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		r := recv.SourceAt(int64(i*bound), bound)
		dst := got[i*bound : (i+1)*bound]
		readers.Add(1)
		go func(r io.Reader, dst []byte) {
			defer readers.Done()
			if _, err := io.ReadFull(r, dst); err != nil {
				t.Error(err)
			}
		}(r, dst)
	}
	readers.Wait()
	recv.Close()
	if !bytes.Equal(got, payload) {
		t.Fatal("bound splitting corrupted data")
	}
}

// TestModeEPasvStorReleasesListener pins the PASV STOR teardown: once
// a W=2 MODE E upload completes, the announced data port refuses new
// dials and the background accept goroutine is gone, instead of both
// living until the accept deadline.
func TestModeEPasvStorReleasesListener(t *testing.T) {
	f := nesttest.Start(t, NewHandler(Options{AllowAnon: true, EnableModeE: true}), nesttest.Options{})
	f.GrantLot(t, gsi.Anonymous, 100*nesttest.MB)
	c, err := Dial(f.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit()
	if err := c.LoginAnonymous(); err != nil {
		t.Fatal(err)
	}
	if err := c.SetMode('E'); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	addr, err := c.Pasv()
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]net.Conn, 2)
	for i := range conns {
		if conns[i], err = net.Dial("tcp", addr); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.cmd(150, "STOR /w2.bin"); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("stripe"), 40000)
	sender := newModeESender(conns)
	if _, err := copyChunked(sender, bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	if err := sender.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.readComplete(); err != nil {
		t.Fatal(err)
	}

	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Fatalf("PASV port %s still accepting after the STOR completed", addr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after STOR, want <= baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
