package nesttest_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"

	"nest/internal/chirp"
	"nest/internal/ftp"
	"nest/internal/gridftp"
	"nest/internal/gsi"
	"nest/internal/httpx"
	"nest/internal/nesttest"
	"nest/internal/nfs"
	"nest/internal/protocol"
)

// benchPayload is what one GET moves over loopback TCP per op: large
// enough that framing and data-path costs dominate per-request
// control-channel chatter, small enough to keep -benchtime reasonable.
const benchPayload = 4 << 20

func payload() []byte {
	p := make([]byte, benchPayload)
	for i := range p {
		p[i] = byte(i)
	}
	return p
}

// BenchmarkProtocolThroughput measures end-to-end GET throughput over
// loopback for each wire protocol, through the full appliance stack:
// protocol framing (vectored header+payload writes), dispatcher,
// transfer manager, and the zero-copy extent handoff out of storage.
// One op is a complete download of a 4 MB file.
func BenchmarkProtocolThroughput(b *testing.B) {
	b.Run("chirp", func(b *testing.B) {
		ca, cred := nesttest.NewCA("john")
		f := nesttest.Start(b, chirp.NewHandler(gsi.NewVerifier(ca), true), nesttest.Options{NoLots: true})
		c, err := chirp.Dial(f.Addr, cred)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if err := c.PutBytes("/bench", payload(), ""); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(benchPayload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n, err := c.GetTo("/bench", io.Discard); err != nil || n != benchPayload {
				b.Fatalf("GetTo = (%d, %v)", n, err)
			}
		}
	})

	b.Run("http", func(b *testing.B) {
		f := nesttest.Start(b, httpx.NewHandler(), nesttest.Options{NoLots: true})
		base := "http://" + f.Addr
		client := &http.Client{}
		req, _ := http.NewRequest(http.MethodPut, base+"/bench", bytes.NewReader(payload()))
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 201 {
			b.Fatalf("seed PUT status %d", resp.StatusCode)
		}
		b.SetBytes(benchPayload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := client.Get(base + "/bench")
			if err != nil {
				b.Fatal(err)
			}
			n, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || n != benchPayload {
				b.Fatalf("GET body = (%d, %v)", n, err)
			}
		}
	})

	// ftp-modee scales the stripe width: width 1 is one sequential pump
	// on one data connection; wider runs fan the GET across that many
	// stripe pumps and data connections end to end (server stripes the
	// file, client reassembles by block offset).
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ftp-modee/par-%d", par), func(b *testing.B) {
			f := nesttest.Start(b, ftp.NewHandler(ftp.Options{AllowAnon: true, EnableModeE: true}), nesttest.Options{NoLots: true})
			c, err := ftp.Dial(f.Addr)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Quit()
			if err := c.LoginAnonymous(); err != nil {
				b.Fatal(err)
			}
			if _, err := c.Stor("/bench", bytes.NewReader(payload())); err != nil {
				b.Fatal(err)
			}
			if err := c.SetMode('E'); err != nil {
				b.Fatal(err)
			}
			if err := c.SetParallelism(par); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(benchPayload)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, err := c.Retr("/bench", io.Discard); err != nil || n != benchPayload {
					b.Fatalf("Retr = (%d, %v)", n, err)
				}
			}
		})
	}

	b.Run("gridftp", func(b *testing.B) {
		ca, cred := nesttest.NewCA("john")
		f := nesttest.Start(b, gridftp.NewHandler(gsi.NewVerifier(ca)), nesttest.Options{NoLots: true})
		c, err := gridftp.Dial(f.Addr, cred)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Quit()
		if _, err := c.Stor("/bench", bytes.NewReader(payload())); err != nil {
			b.Fatal(err)
		}
		if err := c.SetMode('E'); err != nil {
			b.Fatal(err)
		}
		if err := c.SetParallelism(2); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(benchPayload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n, err := c.Retr("/bench", io.Discard); err != nil || n != benchPayload {
				b.Fatalf("Retr = (%d, %v)", n, err)
			}
		}
	})
}

// BenchmarkNFSRead64K measures the paper's block-based access pattern
// over loopback: one op is a LOOKUP plus eight 8 KB READ RPCs of a
// 64 KB file, client and server in one process, so the reported
// allocations cover both sides of the READ path.
func BenchmarkNFSRead64K(b *testing.B) {
	const size = 64 << 10
	f := nesttest.Start(b, nfs.NewHandler(), nesttest.Options{NoLots: true})
	c, err := nfs.Dial(f.Addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	root, err := c.Mount("/")
	if err != nil {
		b.Fatal(err)
	}
	fh, err := c.Create(root, "bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := c.WriteAll(fh, payload()[:size]); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, _, err := c.Lookup(root, "bench")
		if err != nil {
			b.Fatal(err)
		}
		for off := uint32(0); off < size; off += protocol.NFSBlockSize {
			if block, err := c.Read(h, off, protocol.NFSBlockSize); err != nil || len(block) != protocol.NFSBlockSize {
				b.Fatalf("Read at %d = (%d, %v)", off, len(block), err)
			}
		}
	}
}
