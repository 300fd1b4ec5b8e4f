package transport

import (
	"bufio"
	"crypto/tls"
	"encoding/binary"
	"net"
	"sync"
)

// MsgStreamOpen is the reserved frame type every served connection opens
// with: the frame's payload names the subprotocol, and the registered
// StreamHandler takes ownership of the connection for its remaining
// lifetime. Streaming is what lets one client pipeline many submissions (or
// one leader many verification rounds) per connection with asynchronous
// replies, instead of paying a round-trip per message.
const MsgStreamOpen byte = 0xFD

// StreamHandler owns a connection after a MsgStreamOpen frame. open is the
// opening frame's payload (the subprotocol announcement); conn carries every
// subsequent frame in both directions. The handler runs on the connection's
// serving goroutine and should return only when the stream is finished; the
// server closes the connection afterwards.
type StreamHandler func(open []byte, conn *FrameConn)

// FrameConn is a framed, buffered stream connection: the raw substrate under
// streaming subprotocols. Reads are owned by a single goroutine (frames
// arrive in order); writes may come from many goroutines and are serialized
// internally. Writes are buffered — call Flush when a batch of frames must
// actually hit the wire.
type FrameConn struct {
	conn  net.Conn
	r     *bufio.Reader
	limit int // largest frame payload ReadFrame accepts

	wmu sync.Mutex
	w   *bufio.Writer

	stats Stats

	cmu    sync.Mutex
	closed bool
}

// connBuffer sizes each direction's buffer. A flush of verification rounds
// (under 2 KB per 16-submission sum8 batch on one connection) and every
// upload smaller than bits1024's fit in it; a larger frame streams past the
// buffer, not through it.
const connBuffer = 16 << 10

// NewFrameConn wraps an established connection for framed streaming.
func NewFrameConn(conn net.Conn) *FrameConn {
	return &FrameConn{
		conn:  conn,
		r:     bufio.NewReaderSize(conn, connBuffer),
		limit: MaxFrame,
		w:     bufio.NewWriterSize(conn, connBuffer),
	}
}

// SetReadLimit makes ReadFrame refuse a frame whose length prefix exceeds n
// bytes (n ≤ MaxFrame) with ErrFrameSize, before reading or allocating its
// payload. Call it from the reading goroutine.
func (f *FrameConn) SetReadLimit(n int) { f.limit = min(n, MaxFrame) }

// DialStream connects to addr and prepares the connection for streaming. If
// tlsCfg is non-nil the connection is upgraded to TLS. The caller speaks its
// subprotocol by first writing a MsgStreamOpen frame.
func DialStream(addr string, tlsCfg *tls.Config) (*FrameConn, error) {
	conn, err := dialConn(addr, tlsCfg, dialTimeout)
	if err != nil {
		return nil, err
	}
	return NewFrameConn(conn), nil
}

// ReadFrame reads the next frame. Only one goroutine may read at a time. A
// frame over the read limit is ErrFrameSize with its type; any other error
// comes with type 0.
func (f *FrameConn) ReadFrame() (byte, []byte, error) {
	msgType, payload, err := readFrame(f.r, f.limit)
	if err != nil {
		return msgType, nil, err
	}
	f.stats.add(false, frameLen(payload))
	return msgType, payload, nil
}

// WriteFrame appends one frame to the write buffer. Safe for concurrent use;
// nothing reaches the wire until the buffer fills or Flush is called.
func (f *FrameConn) WriteFrame(msgType byte, payload []byte) error {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	if err := writeFrame(f.w, msgType, payload); err != nil {
		return err
	}
	f.stats.add(true, frameLen(payload))
	return nil
}

// WriteFrameParts appends one frame whose payload is the concatenation of
// parts, without assembling them first: the header and each part are copied
// directly into the connection's write buffer under the write lock. This is
// the zero-intermediate path the verification rounds ride — a correlation
// header on the stack plus a pooled message body reach the wire with no
// joined []byte ever existing.
func (f *FrameConn) WriteFrameParts(msgType byte, parts ...[]byte) error {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total > MaxFrame {
		return ErrFrameSize
	}
	var hdr [5]byte
	hdr[0] = msgType
	binary.LittleEndian.PutUint32(hdr[1:], uint32(total))
	f.wmu.Lock()
	defer f.wmu.Unlock()
	if _, err := f.w.Write(hdr[:]); err != nil {
		return err
	}
	for _, p := range parts {
		if _, err := f.w.Write(p); err != nil {
			return err
		}
	}
	f.stats.add(true, 5+total)
	return nil
}

// Flush pushes buffered frames to the wire.
func (f *FrameConn) Flush() error {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	return f.w.Flush()
}

// Stats exposes the connection's traffic counters.
func (f *FrameConn) Stats() *Stats { return &f.stats }

// Close tears the connection down, unblocking any reader.
func (f *FrameConn) Close() error {
	f.cmu.Lock()
	defer f.cmu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	return f.conn.Close()
}
