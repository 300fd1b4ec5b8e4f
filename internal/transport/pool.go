package transport

import (
	"math/bits"
	"sync"
)

// Scratch-buffer arena for the hot marshalling paths, size-classed by power
// of two and storing *Buf instead of boxed slice headers so a full Get/Free
// round trip is allocation-free. Verification-round requests
// (internal/core's leader) and streamed-frame scratch space draw from here;
// a frame built in a pooled Buf is written straight into the connection's
// bufio writer by WriteFrameParts, so the only copies on the wire path are
// payload → bufio buffer → kernel.
//
// Ownership rule: whoever calls GetBuf must eventually call Free exactly
// once, and must not retain b.B (or anything aliasing it) past the Free.
// Buffers that escape to callers with unknown lifetimes (handler responses,
// decoded frames) must NOT be pooled.

// Buf is a pooled byte buffer. The zero value is usable but unpooled; use
// GetBuf for pooled instances.
type Buf struct {
	// B is the working slice. Callers may reslice and append to it freely;
	// Free files the buffer by B's final capacity.
	B []byte
}

const (
	minBufClass = 8  // 256 B — smaller asks round up
	maxBufClass = 22 // 4 MiB — larger asks bypass the pool
)

// bufPools[i] holds *Buf whose capacity is at least 1<<(minBufClass+i).
var bufPools [maxBufClass - minBufClass + 1]sync.Pool

// bufClass maps a size to the pool index that guarantees capacity for it,
// or -1 when the size bypasses the pool.
func bufClass(n int) int {
	if n <= 1<<minBufClass {
		return 0
	}
	if n > 1<<maxBufClass {
		return -1
	}
	return bits.Len(uint(n-1)) - minBufClass
}

// GetBuf returns a buffer with capacity ≥ n and length 0. Oversized requests
// are served by a plain allocation and recycled opportunistically.
func GetBuf(n int) *Buf {
	c := bufClass(n)
	if c < 0 {
		return &Buf{B: make([]byte, 0, n)}
	}
	if v := bufPools[c].Get(); v != nil {
		b := v.(*Buf)
		b.B = b.B[:0]
		return b
	}
	return &Buf{B: make([]byte, 0, 1<<(minBufClass+c))}
}

// Free returns the buffer to its size class for reuse. The caller must not
// touch b or b.B afterwards. Nil buffers are ignored.
func (b *Buf) Free() {
	if b == nil || b.B == nil {
		return
	}
	// File by the floor class so a pooled entry always satisfies the class's
	// capacity guarantee even after the slice grew past its original class.
	c := bits.Len(uint(cap(b.B))) - 1 - minBufClass
	if c < 0 || c > maxBufClass-minBufClass {
		return // outside the pooled range; let the GC take it
	}
	b.B = b.B[:0]
	bufPools[c].Put(b)
}
