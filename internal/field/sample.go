package field

import (
	"encoding/binary"
	"io"
	"sync"
)

// Bulk sampling. Every field draws an element from ElemSize() consecutive
// bytes of its entropy source and redraws on an out-of-range value, so a
// vector of n elements is a walk over consecutive fixed-width draws. Doing
// that walk one io.Reader call per draw is what made PRG share expansion
// cost an 8-byte AES-CTR call (and a heap-escaped buffer) per element;
// SampleInto instead pulls the source in multi-KiB chunks and samples from
// the chunk. It consumes exactly the bytes the per-element walk would —
// never reading past the last draw it needs — so the element stream for a
// given source is bit-identical to calling SampleElem in a loop.

// sampleChunk is the number of source bytes pulled per read: large enough
// that an AES-CTR source runs at keystream speed, small enough to stay in
// L1 beside the destination. It is a multiple of every fixed-width field's
// element size.
const sampleChunk = 4096

// chunkPool recycles the chunk buffers: one handed to an io.Reader escapes
// to the heap, and a 4 KiB allocation per expanded share is measurable.
var chunkPool = sync.Pool{New: func() any { return new([sampleChunk]byte) }}

// SampleInto fills dst with uniformly random elements using entropy from r.
// It reads exactly the bytes that len(dst) successive SampleElem calls on r
// would read and produces the same elements.
func SampleInto[Fd Field[E], E any](f Fd, r io.Reader, dst []E) error {
	if len(dst) == 0 {
		return nil
	}
	buf := chunkPool.Get().(*[sampleChunk]byte)
	defer chunkPool.Put(buf)
	if _, ok := any(f).(F64); ok {
		return sampleF64(r, buf[:], any(dst).([]uint64))
	}
	sz := f.ElemSize()
	cr := &chunkReader{r: r, buf: buf[:sampleChunk-sampleChunk%sz]}
	if sz > sampleChunk {
		cr.buf = make([]byte, sz) // wider than a chunk: one draw per read
	}
	for i := range dst {
		// The elements still to come need at least one sz-byte draw each,
		// so a refill of up to that total never reads past the last draw.
		cr.want = (len(dst) - i) * sz
		e, err := f.SampleElem(cr)
		if err != nil {
			return err
		}
		dst[i] = e
	}
	return nil
}

// sampleF64 rejection-samples little-endian 64-bit words below the
// Goldilocks modulus straight into dst, a chunk of source bytes at a time.
// A word is rejected with probability ≈ 2⁻³², so almost every chunk yields
// one element per word.
func sampleF64(r io.Reader, buf []byte, dst []uint64) error {
	for i := 0; i < len(dst); {
		b := buf[:8*min(len(dst)-i, len(buf)/8)]
		if _, err := io.ReadFull(r, b); err != nil {
			return err
		}
		for ; len(b) >= 8; b = b[8:] {
			if v := binary.LittleEndian.Uint64(b); v < ModulusF64 {
				dst[i] = v
				i++
			}
		}
	}
	return nil
}

// chunkReader serves a field's fixed-width draws out of chunk-sized reads
// of the underlying source. want, set by the caller before each draw, is the
// number of bytes it needs if no further draw is rejected; refills are
// capped by it so the source is never read past the last draw.
type chunkReader struct {
	r        io.Reader
	buf      []byte
	pos, end int
	want     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.pos == c.end {
		n := min(len(c.buf), c.want)
		if _, err := io.ReadFull(c.r, c.buf[:n]); err != nil {
			return 0, err
		}
		c.pos, c.end = 0, n
	}
	n := copy(p, c.buf[c.pos:c.end])
	c.pos += n
	return n, nil
}
