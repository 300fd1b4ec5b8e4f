package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"sync/atomic"
)

// MaxFrame bounds a single message; larger frames indicate corruption or
// abuse and are rejected.
const MaxFrame = 1 << 28

// Errors returned by transports.
var (
	ErrClosed    = errors.New("transport: connection closed")
	ErrFrameSize = errors.New("transport: frame exceeds maximum size")
)

// Handler processes one request message and returns the response payload.
// Handlers must be safe for concurrent use.
type Handler func(msgType byte, payload []byte) ([]byte, error)

// Stats counts traffic through a peer, in payload-plus-framing bytes.
// All fields are accessed atomically.
type Stats struct {
	BytesSent uint64
	BytesRecv uint64
	MsgsSent  uint64
	MsgsRecv  uint64
}

// add records one message of n framed bytes in the given direction.
func (s *Stats) add(sent bool, n int) {
	if sent {
		atomic.AddUint64(&s.BytesSent, uint64(n))
		atomic.AddUint64(&s.MsgsSent, 1)
	} else {
		atomic.AddUint64(&s.BytesRecv, uint64(n))
		atomic.AddUint64(&s.MsgsRecv, 1)
	}
}

// Snapshot returns a consistent copy of the counters.
func (s *Stats) Snapshot() Stats {
	return Stats{
		BytesSent: atomic.LoadUint64(&s.BytesSent),
		BytesRecv: atomic.LoadUint64(&s.BytesRecv),
		MsgsSent:  atomic.LoadUint64(&s.MsgsSent),
		MsgsRecv:  atomic.LoadUint64(&s.MsgsRecv),
	}
}

// Peer is the client side of a request/response channel to one server.
// Implementations are safe for concurrent Call use.
type Peer interface {
	// Call sends a typed request and blocks for the typed response.
	Call(msgType byte, payload []byte) ([]byte, error)
	// Stats exposes the traffic counters for this peer.
	Stats() *Stats
	// Close releases the underlying resources.
	Close() error
}

// frameLen is the framed size of a payload: type byte + length + payload.
func frameLen(payload []byte) int { return 1 + 4 + len(payload) }

// writeFrame writes one tagged frame to w.
func writeFrame(w io.Writer, msgType byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameSize
	}
	var hdr [5]byte
	hdr[0] = msgType
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one tagged frame from r. The payload buffer grows
// geometrically from at most 1 MiB rather than trusting the 4-byte length
// up front: a peer that announces a 256 MB frame must actually send the
// bytes before this side commits the memory, so a forged header costs the
// attacker bandwidth instead of costing us an allocation. Frames at or
// below the initial step — every frame the protocol sends in practice —
// still take the single-allocation fast path.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[1:]))
	if n > MaxFrame {
		return 0, nil, ErrFrameSize
	}
	const step = 1 << 20
	if n <= step {
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, nil, err
		}
		return hdr[0], payload, nil
	}
	payload := make([]byte, step)
	read := 0
	for {
		if _, err := io.ReadFull(r, payload[read:]); err != nil {
			return 0, nil, err
		}
		read = len(payload)
		if read == n {
			return hdr[0], payload, nil
		}
		grown := make([]byte, min(2*read, n))
		copy(grown, payload)
		payload = grown
	}
}

// LoopbackPeer is the in-process Peer: it invokes a Handler directly while
// accounting the bytes a network would carry (request and response, each
// with its 5-byte frame header), which is how single-process clusters
// measure per-server transfer (Figure 6). Leaders also use it for their own
// co-located server. The zero value with Handler set is ready to use.
type LoopbackPeer struct {
	Handler Handler
	stats   Stats
}

// Call implements Peer. A handler error counts no response bytes.
func (p *LoopbackPeer) Call(msgType byte, payload []byte) ([]byte, error) {
	p.stats.add(true, frameLen(payload))
	resp, err := p.Handler(msgType, payload)
	if err != nil {
		return nil, err
	}
	p.stats.add(false, frameLen(resp))
	return resp, nil
}

// Stats implements Peer.
func (p *LoopbackPeer) Stats() *Stats { return &p.stats }

// Close implements Peer.
func (p *LoopbackPeer) Close() error { return nil }

// MsgError is the reserved frame type reporting a fatal connection or
// stream error before the sender closes: its payload is the error string.
const MsgError byte = 0xFF
