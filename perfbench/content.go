package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand/v2"
)

// Every file the benchmark writes is a window of one seeded random
// pattern. The pattern period is deliberately not a multiple of any
// chunk, extent, stripe or NFS block size, so a chunk delivered at the
// wrong offset never matches by accident; the bytes needed for one
// verification step are always contiguous because the first window of
// the pattern is repeated after its end.
const (
	patternPeriod = 1<<20 + 4093
	patternWindow = 1 << 20
)

// content is the seeded pattern plus the rule that places each file
// version in it.
type content struct {
	buf  []byte
	seed uint64
}

func newContent(seed uint64) *content {
	r := rand.New(rand.NewPCG(seed, 0x6e657374)) // "nest"
	buf := make([]byte, patternPeriod+patternWindow)
	for i := 0; i+8 <= patternPeriod; i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], r.Uint64())
	}
	for i := patternPeriod &^ 7; i < patternPeriod; i++ {
		buf[i] = byte(r.Uint32())
	}
	copy(buf[patternPeriod:], buf[:patternWindow])
	return &content{buf: buf, seed: seed}
}

// shift is the pattern offset of byte 0 of file version (file, gen).
func (c *content) shift(file int, gen uint32) int64 {
	x := c.seed ^ uint64(file)<<32 ^ uint64(gen)
	// splitmix64 finalizer: neighbouring versions land far apart.
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x % patternPeriod)
}

// at returns the expected bytes [pos, pos+n) of the version starting at
// shift; n must not exceed patternWindow.
func (c *content) at(shift, pos int64, n int) []byte {
	start := (shift + pos) % patternPeriod
	return c.buf[start : start+int64(n)]
}

// verifySink is the GET destination: it compares every byte against the
// expected version as it streams past and keeps nothing. It is reused
// across operations, so GETs allocate nothing in the harness.
type verifySink struct {
	c     *content
	shift int64
	pos   int64
	size  int64
	bad   bool
}

func (v *verifySink) reset(shift, size int64) {
	v.shift, v.pos, v.size, v.bad = shift, 0, size, false
}

// Write never fails: a mismatch is recorded and the stream drained, so
// the protocol session stays usable and the op is counted as failed.
func (v *verifySink) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		k := len(p)
		if k > patternWindow {
			k = patternWindow
		}
		if v.pos+int64(k) > v.size {
			v.bad = true
			return n, nil
		}
		if !bytes.Equal(p[:k], v.c.at(v.shift, v.pos, k)) {
			v.bad = true
		}
		v.pos += int64(k)
		p = p[k:]
	}
	return n, nil
}

// ok reports whether exactly the expected bytes arrived.
func (v *verifySink) ok() bool { return !v.bad && v.pos == v.size }

// patternSource is the PUT source: it yields one file version and is
// reused across operations.
type patternSource struct {
	c     *content
	shift int64
	pos   int64
	size  int64
}

func (s *patternSource) reset(shift, size int64) { s.shift, s.pos, s.size = shift, 0, size }

func (s *patternSource) Read(p []byte) (int, error) {
	if s.pos >= s.size {
		return 0, io.EOF
	}
	n := int64(len(p))
	if rem := s.size - s.pos; n > rem {
		n = rem
	}
	if n > patternWindow {
		n = patternWindow
	}
	copy(p, s.c.at(s.shift, s.pos, int(n)))
	s.pos += n
	return int(n), nil
}
