// Package xdr implements the External Data Representation encoding
// (RFC 1014) used by Sun RPC and NFS: big-endian 4-byte alignment,
// 32/64-bit integers, opaque byte sequences and counted arrays.
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
)

// ErrShortBuffer reports a decode past the end of input.
var ErrShortBuffer = errors.New("xdr: short buffer")

// Encoder appends XDR-encoded values to a buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset empties the encoder, keeping its buffer for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint32 encodes a 32-bit unsigned integer.
func (e *Encoder) Uint32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// Int32 encodes a 32-bit signed integer.
func (e *Encoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Uint64 encodes a 64-bit unsigned integer (XDR hyper).
func (e *Encoder) Uint64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// Int64 encodes a 64-bit signed integer.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Bool encodes a boolean as 0 or 1.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint32(1)
	} else {
		e.Uint32(0)
	}
}

// FixedOpaque encodes bytes without a length prefix, padded to 4 bytes.
func (e *Encoder) FixedOpaque(p []byte) {
	e.buf = append(e.buf, p...)
	for len(e.buf)%4 != 0 {
		e.buf = append(e.buf, 0)
	}
}

// Opaque encodes a variable-length byte sequence with length prefix.
func (e *Encoder) Opaque(p []byte) {
	e.Uint32(uint32(len(p)))
	e.FixedOpaque(p)
}

// String encodes a string as variable-length opaque.
func (e *Encoder) String(s string) { e.Opaque([]byte(s)) }

// Decoder consumes XDR-encoded values from a buffer.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder wraps p for decoding.
func NewDecoder(p []byte) *Decoder { return &Decoder{buf: p} }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	if d.Remaining() < 4 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes a 64-bit unsigned integer.
func (d *Decoder) Uint64() (uint64, error) {
	if d.Remaining() < 8 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// Int64 decodes a 64-bit signed integer.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Bool decodes a boolean.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, fmt.Errorf("xdr: invalid boolean %d", v)
}

// FixedOpaque decodes n bytes plus padding. The result aliases the
// decoder's buffer (capacity clipped, so appending to it reallocates
// rather than overwrite the next field): callers that outlive the
// buffer, or reuse it, must copy.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("xdr: negative opaque length %d", n)
	}
	padded := (n + 3) &^ 3
	if d.Remaining() < padded {
		return nil, ErrShortBuffer
	}
	p := d.buf[d.off : d.off+n : d.off+n]
	d.off += padded
	return p, nil
}

// Opaque decodes a length-prefixed byte sequence, enforcing maxLen
// (use 0 for no limit). Like FixedOpaque, the result aliases the
// decoder's buffer.
func (d *Decoder) Opaque(maxLen int) ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if maxLen > 0 && int(n) > maxLen {
		return nil, fmt.Errorf("xdr: opaque length %d exceeds limit %d", n, maxLen)
	}
	if int(n) > d.Remaining() {
		return nil, ErrShortBuffer
	}
	return d.FixedOpaque(int(n))
}

// String decodes a length-prefixed string.
func (d *Decoder) String(maxLen int) (string, error) {
	p, err := d.Opaque(maxLen)
	return string(p), err
}

// ReadRecord reads one RPC record-marking frame from r: a 4-byte
// header whose top bit flags the final fragment and whose low 31 bits
// give the fragment length. Each fragment is read straight into the
// record, so a single-fragment record (the common case) costs one
// allocation of its own size and no copy; further fragments grow it.
func ReadRecord(r io.Reader, maxSize int) ([]byte, error) {
	var rec []byte
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, err
		}
		h := binary.BigEndian.Uint32(hdr[:])
		last := h&0x80000000 != 0
		n := int(h & 0x7fffffff)
		if maxSize > 0 && len(rec)+n > maxSize {
			return nil, fmt.Errorf("xdr: record exceeds %d bytes", maxSize)
		}
		off := len(rec)
		rec = slices.Grow(rec, n)[:off+n]
		if _, err := io.ReadFull(r, rec[off:]); err != nil {
			return nil, err
		}
		if last {
			return rec, nil
		}
	}
}

// WriteRecord writes p to w as a single final record-marking fragment.
func WriteRecord(w io.Writer, p []byte) error { return WriteRecordParts(w, p, nil) }

// zeroPad supplies the XDR padding after an unaligned body.
var zeroPad [3]byte

// WriteRecordParts writes head, then body padded with zeros to a
// 4-byte boundary, as one final record-marking fragment. Marker, head,
// body and padding go out as one vectored write (writev when w is a
// TCP connection), so a large body — an NFS READ block, a call's
// arguments — is never copied behind its header in user space, and
// the record never crosses the wire in pieces.
func WriteRecordParts(w io.Writer, head, body []byte) error {
	pad := -len(body) & 3
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(head)+len(body)+pad)|0x80000000)
	want := int64(len(hdr) + len(head) + len(body) + pad)
	// Empty parts are dropped: on a writer without writev each part is
	// one Write, and a zero-length Write blocks on some (net.Pipe).
	bufs := slices.DeleteFunc(net.Buffers{hdr[:], head, body, zeroPad[:pad]},
		func(b []byte) bool { return len(b) == 0 })
	n, err := bufs.WriteTo(w)
	if err == nil && n < want {
		return io.ErrShortWrite
	}
	return err
}
