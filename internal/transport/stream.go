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
	conn net.Conn
	r    *bufio.Reader

	wmu sync.Mutex
	w   *bufio.Writer

	stats Stats

	cmu    sync.Mutex
	closed bool
}

// NewFrameConn wraps an established connection for framed streaming.
func NewFrameConn(conn net.Conn) *FrameConn {
	return &FrameConn{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 64<<10),
		w:    bufio.NewWriterSize(conn, 64<<10),
	}
}

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

// ReadFrame reads the next frame. Only one goroutine may read at a time.
func (f *FrameConn) ReadFrame() (byte, []byte, error) {
	msgType, payload, err := readFrame(f.r)
	if err != nil {
		return 0, nil, err
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
