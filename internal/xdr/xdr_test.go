package xdr

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Uint32(0xdeadbeef)
	e.Int32(-42)
	e.Uint64(1 << 40)
	e.Int64(-(1 << 40))
	e.Bool(true)
	e.Bool(false)
	d := NewDecoder(e.Bytes())
	if v, err := d.Uint32(); err != nil || v != 0xdeadbeef {
		t.Errorf("Uint32 = %x, %v", v, err)
	}
	if v, err := d.Int32(); err != nil || v != -42 {
		t.Errorf("Int32 = %d, %v", v, err)
	}
	if v, err := d.Uint64(); err != nil || v != 1<<40 {
		t.Errorf("Uint64 = %d, %v", v, err)
	}
	if v, err := d.Int64(); err != nil || v != -(1<<40) {
		t.Errorf("Int64 = %d, %v", v, err)
	}
	if v, err := d.Bool(); err != nil || !v {
		t.Errorf("Bool = %v, %v", v, err)
	}
	if v, err := d.Bool(); err != nil || v {
		t.Errorf("Bool = %v, %v", v, err)
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", d.Remaining())
	}
}

func TestOpaquePadding(t *testing.T) {
	for n := 0; n <= 9; n++ {
		e := NewEncoder()
		p := bytes.Repeat([]byte{0xab}, n)
		e.Opaque(p)
		if e.Len()%4 != 0 {
			t.Errorf("n=%d: encoded length %d not 4-aligned", n, e.Len())
		}
		d := NewDecoder(e.Bytes())
		got, err := d.Opaque(0)
		if err != nil || !bytes.Equal(got, p) {
			t.Errorf("n=%d: Opaque round trip failed: %v", n, err)
		}
		if d.Remaining() != 0 {
			t.Errorf("n=%d: %d bytes left over", n, d.Remaining())
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		e := NewEncoder()
		e.String(s)
		d := NewDecoder(e.Bytes())
		got, err := d.String(0)
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpaqueLimit(t *testing.T) {
	e := NewEncoder()
	e.Opaque(make([]byte, 100))
	d := NewDecoder(e.Bytes())
	if _, err := d.Opaque(50); err == nil {
		t.Error("Opaque over limit did not fail")
	}
}

func TestShortBuffer(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	if _, err := d.Uint32(); err != ErrShortBuffer {
		t.Errorf("Uint32 on short buffer: %v", err)
	}
	d2 := NewDecoder([]byte{0, 0, 0, 8, 1, 2})
	if _, err := d2.Opaque(0); err != ErrShortBuffer {
		t.Errorf("Opaque on short buffer: %v", err)
	}
}

func TestInvalidBool(t *testing.T) {
	e := NewEncoder()
	e.Uint32(7)
	d := NewDecoder(e.Bytes())
	if _, err := d.Bool(); err == nil {
		t.Error("Bool(7) did not fail")
	}
}

func TestNegativeFixedOpaque(t *testing.T) {
	d := NewDecoder(nil)
	if _, err := d.FixedOpaque(-1); err == nil {
		t.Error("FixedOpaque(-1) did not fail")
	}
}

func TestRecordMarking(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello rpc world")
	if err := WriteRecord(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecord(&buf, 0)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadRecord = %q, %v", got, err)
	}
}

func TestRecordFragments(t *testing.T) {
	// Hand-build a two-fragment record.
	var buf bytes.Buffer
	buf.Write([]byte{0x00, 0x00, 0x00, 0x03}) // not last, len 3
	buf.WriteString("abc")
	buf.Write([]byte{0x80, 0x00, 0x00, 0x02}) // last, len 2
	buf.WriteString("de")
	got, err := ReadRecord(&buf, 0)
	if err != nil || string(got) != "abcde" {
		t.Fatalf("fragmented ReadRecord = %q, %v", got, err)
	}
}

func TestRecordSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecord(&buf, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRecord(&buf, 50); err == nil {
		t.Error("oversized record did not fail")
	}
}

func TestQuickOpaqueRoundTrip(t *testing.T) {
	f := func(p []byte) bool {
		e := NewEncoder()
		e.Opaque(p)
		d := NewDecoder(e.Bytes())
		got, err := d.Opaque(0)
		return err == nil && bytes.Equal(got, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fragmented frames rec as record-marking fragments of at most size
// bytes each, the last one flagged final.
func fragmented(rec []byte, size int) []byte {
	var out []byte
	for {
		n := min(size, len(rec))
		h := uint32(n)
		if n == len(rec) {
			h |= 0x80000000
		}
		out = binary.BigEndian.AppendUint32(out, h)
		out = append(out, rec[:n]...)
		rec = rec[n:]
		if len(rec) == 0 {
			return out
		}
	}
}

func TestRecordSingleAndMultiFragmentDecodeAlike(t *testing.T) {
	e := NewEncoder()
	e.Uint32(7)
	e.Opaque([]byte("first field, unaligned"))
	e.String("second")
	e.Uint64(1 << 40)
	rec := e.Bytes()
	for _, size := range []int{len(rec), 5, 1} {
		got, err := ReadRecord(bytes.NewReader(fragmented(rec, size)), 0)
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("fragments of %d: ReadRecord = %x, %v; want %x", size, got, err, rec)
		}
		d := NewDecoder(got)
		v, _ := d.Uint32()
		p, _ := d.Opaque(0)
		s, _ := d.String(0)
		h, err := d.Uint64()
		if err != nil || v != 7 || string(p) != "first field, unaligned" || s != "second" || h != 1<<40 {
			t.Errorf("fragments of %d: decoded %d %q %q %d, %v", size, v, p, s, h, err)
		}
	}
}

func TestWriteRecordPartsPadsBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecordParts(&buf, []byte{0, 0, 0, 3}, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	want := fragmented([]byte{0, 0, 0, 3, 'a', 'b', 'c', 0}, 1<<20)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("wire = %x, want %x", buf.Bytes(), want)
	}
	got, err := ReadRecord(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := NewDecoder(got).Opaque(0); err != nil || string(p) != "abc" {
		t.Errorf("Opaque = %q, %v", p, err)
	}
}

func TestFixedOpaqueAliasesRecord(t *testing.T) {
	e := NewEncoder()
	e.Opaque([]byte("ab")) // padded to 4 bytes
	e.Uint32(0x01020304)
	rec := e.Bytes()
	d := NewDecoder(rec)
	p, err := d.Opaque(0)
	if err != nil {
		t.Fatal(err)
	}
	if &p[0] != &rec[4] {
		t.Error("Opaque copied instead of returning a sub-slice of the record")
	}
	if cap(p) != len(p) {
		t.Errorf("cap = %d, want clipped to len %d", cap(p), len(p))
	}
	// Appending must reallocate, leaving the padding and the next field
	// untouched.
	p = append(p, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	if v, err := d.Uint32(); err != nil || v != 0x01020304 {
		t.Errorf("next field = %#x, %v after append to the opaque", v, err)
	}
	if !bytes.Equal(rec[6:8], []byte{0, 0}) {
		t.Errorf("padding overwritten: %x", rec[6:8])
	}
}
