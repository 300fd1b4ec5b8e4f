package core

import (
	"encoding"
	"encoding/binary"
	"errors"
	"io"

	"prio/internal/field"
	"prio/internal/transport"
)

// Message types of the server-to-server protocol. Three numbers are
// retired and must not be reused; no handler answers them: 1
// (MsgSetChallenge, the challenge broadcast that the seed in every Round1
// replaced), 3 (MsgRound2, the per-submission Round2 exchange) and 9 (the
// one-shot client submit that streaming ingest replaced). 1 and 3 keep
// their names so tooling that labels old traces still compiles.
//
// Every verification-round request opens with [u32 challenge number][u64
// batch ID]; the challenge number only names the challenge in errors and
// traces. Round1 continues [u32 count][16-byte challenge seed][count ×
// (u32 length, bundle)][u64 window stamp]; in no-robust mode, which
// verifies nothing, the seed is absent.
const (
	MsgSetChallenge byte = 1 // retired: the challenge broadcast
	MsgRound1       byte = 2 // leader -> servers: challenge seed and batch of bundles; reply: Round1 shares
	MsgRound2       byte = 3 // retired: the per-submission Round2 exchange
	MsgMPCRound     byte = 4 // leader -> servers: opened MPC masks; reply: next masks or tau
	MsgFinish       byte = 5 // leader -> servers: accept bitmap; servers accumulate
	MsgAggregate    byte = 6 // anyone -> server: fetch accumulator (refused once DP noise is installed)
	MsgReset        byte = 7 // leader -> servers: clear accumulator and sessions
	MsgPublicKey    byte = 8 // anyone -> server: fetch sealbox public key
	// MsgRound2Batch is the SNIP decision round: one combined probe over the
	// whole batch and, only if its check fails, one reveal (probe kinds
	// below).
	MsgRound2Batch byte = 10 // leader -> servers: a Round2 probe; reply: σ/τ shares
	// MsgWindowPublish seals one tumbling collection window on every server
	// and fetches its share: the server applies its own DP noise exactly
	// once, freezes the window, and replies (flags, ε, count, vec). See
	// window.go; window IDs are wall-time derived (internal/window), not
	// cluster leadership epochs.
	MsgWindowPublish byte = 11 // leader -> servers: seal window; reply: noised share
)

// MsgRound2Batch probe kinds, the byte after the batch ID. Kind 0 was the
// retired bisection's interior probe; servers refuse it.
const (
	probeCombined byte = 1 // opened masks; reply: one combined σ/τ share for the batch
	probeReveal   byte = 2 // nothing more; reply: every submission's own σ/τ share, in order
)

// errTruncated reports malformed wire input.
var errTruncated = errors.New("core: truncated or malformed message")

// wbuf is an append-only message writer. The zero value writes into a
// GC-managed slice; grab backs it with a pooled arena buffer instead, which
// is how the leader's verification rounds build requests with zero
// steady-state allocation (see transport.GetBuf for the ownership rules).
type wbuf struct {
	b     []byte
	arena *transport.Buf
}

var (
	_ io.WriterTo                = (*wbuf)(nil)
	_ encoding.BinaryMarshaler   = (*wbuf)(nil)
	_ encoding.BinaryUnmarshaler = (*rbuf)(nil)
	_ io.ReaderFrom              = (*rbuf)(nil)
)

// grab backs the writer with a pooled buffer sized for hint bytes and
// resets it. The caller owes the arena a release: either seal (caller
// frees later) or detach (ownership passes to the result's consumer).
func (w *wbuf) grab(hint int) {
	w.arena = transport.GetBuf(hint)
	w.b = w.arena.B
}

// seal returns the finished message and its arena. The bytes remain valid
// until buf.Free(); the writer is left reset for reuse.
func (w *wbuf) seal() (msg []byte, buf *transport.Buf) {
	buf = w.arena
	if buf != nil {
		buf.B = w.b // the slice may have outgrown the arena's original header
	}
	msg = w.b
	w.b = nil
	w.arena = nil
	return msg, buf
}

// detach returns the finished message and drops the arena box: the bytes
// are handed off with unknown lifetime (a handler response escaping to the
// transport layer), so they must not return to the pool from here.
func (w *wbuf) detach() []byte {
	msg := w.b
	w.b = nil
	w.arena = nil
	return msg
}

// WriteTo implements io.WriterTo, streaming the accumulated message.
func (w *wbuf) WriteTo(dst io.Writer) (int64, error) {
	n, err := dst.Write(w.b)
	return int64(n), err
}

// MarshalBinary implements encoding.BinaryMarshaler with a defensive copy,
// since the accumulated bytes may live in a pooled arena.
func (w *wbuf) MarshalBinary() ([]byte, error) {
	return append([]byte(nil), w.b...), nil
}

func (w *wbuf) u8(v byte)     { w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) raw(b []byte)  { w.b = append(w.b, b...) }
func (w *wbuf) blob(b []byte) { w.u32(uint32(len(b))); w.raw(b) }

// vec appends n field elements without a length prefix (the reader knows n
// from protocol context).
func wvec[Fd field.Field[E], E any](w *wbuf, f Fd, v []E) {
	w.b = field.AppendVec(f, w.b, v)
}

// rbuf is a cursor-based message reader; the first failure sticks.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail() { r.err = errTruncated }

func (r *rbuf) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rbuf) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *rbuf) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *rbuf) blob() []byte {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// raw reads len(dst) bytes into dst.
func (r *rbuf) raw(dst []byte) {
	if r.err != nil || r.off+len(dst) > len(r.b) {
		r.fail()
		return
	}
	r.off += copy(dst, r.b[r.off:])
}

// rvec reads n field elements.
func rvec[Fd field.Field[E], E any](r *rbuf, f Fd, n int) []E {
	if r.err != nil {
		return nil
	}
	v, used, err := field.ReadVec(f, r.b[r.off:], n)
	if err != nil {
		r.fail()
		return nil
	}
	r.off += used
	return v
}

// done reports whether the buffer was fully and cleanly consumed.
func (r *rbuf) done() bool { return r.err == nil && r.off == len(r.b) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler: the reader cursors
// over data without copying it (blob results alias the input).
func (r *rbuf) UnmarshalBinary(data []byte) error {
	*r = rbuf{b: data}
	return nil
}

// ReadFrom implements io.ReaderFrom, loading the reader from a stream.
func (r *rbuf) ReadFrom(src io.Reader) (int64, error) {
	data, err := io.ReadAll(src)
	*r = rbuf{b: data}
	return int64(len(data)), err
}
