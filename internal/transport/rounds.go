package transport

import (
	"crypto/tls"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prio/internal/telemetry"
)

// The rounds subprotocol carries every Peer call between processes —
// verification rounds (Round1, Round2, MPC rounds, Finish, window publishes),
// key fetches and cluster probes — on one persistent FrameConn per peer, the
// same machinery the ingest path uses. Each logical call carries a
// correlation ID, so many calls are in flight concurrently: shard A's Round2
// does not queue head-to-tail behind shard B's Round1. Replies arrive in
// whatever order the server finishes them and are matched back to their
// waiting callers by ID.
//
// Wire format, inside the stream opened with a MsgStreamOpen frame whose
// payload is RoundsProto:
//
//	call  frame (type 0x30): u64 corr ‖ u8 inner msgType ‖ body
//	reply frame (type 0x31): u64 corr ‖ u8 status        ‖ body
//
// status 1 means body is the handler's response; status 0 means body is the
// handler's error string (the stream stays usable — a handler error is a
// healthy exchange). A MsgError frame at the stream level is fatal and kills
// every pending call.

// RoundsProto names the verification-round subprotocol in the MsgStreamOpen
// payload.
const RoundsProto = "prio-rounds/1"

const (
	msgRoundsCall  byte = 0x30
	msgRoundsReply byte = 0x31
)

var (
	errShortRoundsFrame = errors.New("transport: rounds frame too short")
	errBadReplyStatus   = errors.New("transport: rounds reply has invalid status byte")
)

// Rounds-stream telemetry, shared by every StreamPeer and dispatcher in the
// process (the operator endpoint serves telemetry.Default).
var (
	streamOpens = telemetry.Default.Counter("prio_transport_stream_opens_total",
		"verification-round stream connections established (client side)")
	streamCalls = telemetry.Default.Counter("prio_transport_stream_calls_total",
		"calls issued over verification-round streams")
	streamErrors = telemetry.Default.Counter("prio_transport_stream_errors_total",
		"verification-round streams torn down by transport failures")
	streamFlushes = telemetry.Default.Counter("prio_transport_stream_flushes_total",
		"buffered-write flushes on verification-round streams (client side)")
	streamInflight int64
)

func init() {
	telemetry.Default.GaugeFunc("prio_transport_stream_inflight",
		"calls awaiting replies across all verification-round streams",
		func() float64 { return float64(atomic.LoadInt64(&streamInflight)) })
}

// CallFrame is the decoded payload of a msgRoundsCall frame.
type CallFrame struct {
	Corr uint64 // correlation ID, echoed verbatim in the reply
	Type byte   // inner message type, dispatched to the server Handler
	Body []byte // inner payload
}

// ReplyFrame is the decoded payload of a msgRoundsReply frame.
type ReplyFrame struct {
	Corr uint64
	OK   bool // true: Body is the response; false: Body is the error text
	Body []byte
}

var (
	_ encoding.BinaryMarshaler   = (*CallFrame)(nil)
	_ encoding.BinaryUnmarshaler = (*CallFrame)(nil)
	_ encoding.BinaryMarshaler   = (*ReplyFrame)(nil)
	_ encoding.BinaryUnmarshaler = (*ReplyFrame)(nil)
)

// MarshalBinary implements encoding.BinaryMarshaler. The hot path does not
// use it — StreamPeer.Call and the dispatcher write the 9-byte header and
// the body as separate WriteFrameParts segments — but it round-trips with
// UnmarshalBinary for tests and tooling.
func (c *CallFrame) MarshalBinary() ([]byte, error) {
	b := make([]byte, 9+len(c.Body))
	binary.LittleEndian.PutUint64(b, c.Corr)
	b[8] = c.Type
	copy(b[9:], c.Body)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Body aliases data;
// the caller keeps ownership of the input and must not recycle it while the
// frame is live.
func (c *CallFrame) UnmarshalBinary(data []byte) error {
	if len(data) < 9 {
		return errShortRoundsFrame
	}
	c.Corr = binary.LittleEndian.Uint64(data)
	c.Type = data[8]
	c.Body = data[9:]
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (r *ReplyFrame) MarshalBinary() ([]byte, error) {
	b := make([]byte, 9+len(r.Body))
	binary.LittleEndian.PutUint64(b, r.Corr)
	if r.OK {
		b[8] = 1
	}
	copy(b[9:], r.Body)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Body aliases data.
func (r *ReplyFrame) UnmarshalBinary(data []byte) error {
	if len(data) < 9 {
		return errShortRoundsFrame
	}
	if data[8] > 1 {
		return errBadReplyStatus
	}
	r.Corr = binary.LittleEndian.Uint64(data)
	r.OK = data[8] == 1
	r.Body = data[9:]
	return nil
}

// roundsCall is one caller waiting for its correlated reply.
type roundsCall struct {
	done chan struct{}
	resp []byte
	err  error
}

// outFrame is one queued rounds frame: the 9-byte correlation header plus
// the body, written as separate segments so the body never gets copied into
// an intermediate buffer.
type outFrame struct {
	hdr  [9]byte
	body []byte
}

// roundsConn is one live stream connection with its pending-call table. The
// table lives here, not on the peer, so a late failure of a replaced
// connection can only resolve calls that were registered on it — never calls
// riding its successor.
type roundsConn struct {
	fc      *FrameConn
	writeq  chan outFrame // call frames awaiting the writer goroutine
	dead    chan struct{}
	once    sync.Once
	waiters map[uint64]*roundsCall // guarded by the owning peer's mu
}

// StreamPeer is the networked Peer: its calls ride the rounds subprotocol on
// one persistent, pipelined stream connection. Concurrent Calls are all in
// flight at once (no per-connection serialization); writes gather in the
// connection's buffer and a dedicated flusher pushes them to the wire, so a
// burst of shard rounds costs one syscall, not one per round.
//
// The connection is dialed lazily and dropped on any transport failure; the
// next Call re-dials, so a restarted server is picked back up without
// anyone rebuilding the peer set. Pending calls on a failed connection all
// return the transport error, which is what lets Pipeline.Retries re-run an
// interrupted batch.
type StreamPeer struct {
	addr   string
	tlsCfg *tls.Config

	stats Stats

	mu     sync.Mutex
	conn   *roundsConn
	corr   uint64
	closed bool
}

// NewStreamPeer builds a streamed-rounds peer for addr. No connection is
// made until the first Call, so boot order across a deployment's servers
// does not matter.
func NewStreamPeer(addr string, tlsCfg *tls.Config) *StreamPeer {
	return &StreamPeer{addr: addr, tlsCfg: tlsCfg}
}

// dialLocked opens a connection within timeout, announces the subprotocol,
// and starts the reader and flusher. Called with p.mu held.
func (p *StreamPeer) dialLocked(timeout time.Duration) (*roundsConn, error) {
	conn, err := dialConn(p.addr, p.tlsCfg, timeout)
	if err != nil {
		return nil, err
	}
	fc := NewFrameConn(conn)
	if err := fc.WriteFrame(MsgStreamOpen, []byte(RoundsProto)); err != nil {
		fc.Close()
		return nil, err
	}
	if err := fc.Flush(); err != nil {
		fc.Close()
		return nil, err
	}
	rc := &roundsConn{
		fc:      fc,
		writeq:  make(chan outFrame, 512),
		dead:    make(chan struct{}),
		waiters: make(map[uint64]*roundsCall),
	}
	go p.readLoop(rc)
	go p.writeLoop(rc)
	streamOpens.Inc()
	return rc, nil
}

// Call implements Peer. The request is queued for the connection's writer
// goroutine — correlation header by value, payload as its own segment — and
// the goroutine parks until the reader matches the reply. The payload stays
// live for the whole call (the reply cannot arrive before the frame is
// written), so pooled request arenas are safe to free once Call returns.
func (p *StreamPeer) Call(msgType byte, payload []byte) ([]byte, error) {
	return p.CallTimeout(msgType, payload, 0)
}

// CallTimeout is Call with a bound (none when timeout is zero) covering the
// dial, if one is needed, the write and the wait for the reply. Health
// probes and one-shot fetches use it so a hung or black-holed peer turns
// into a timely error. A peer slower than the bound is treated as dead:
// expiry drops the connection — failing whatever else was pending on it — so
// the next call re-dials, and the late reply, addressed to a connection that
// no longer exists, can never resolve a later call. Unlike Call, an expired
// CallTimeout may return while the writer still holds payload, so payload
// must not live in a pooled buffer.
func (p *StreamPeer) CallTimeout(msgType byte, payload []byte, timeout time.Duration) ([]byte, error) {
	var expired <-chan time.Time
	dialTO := dialTimeout
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
		if timeout < dialTO {
			dialTO = timeout
		}
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	rc := p.conn
	if rc == nil {
		nc, err := p.dialLocked(dialTO)
		if err != nil {
			p.mu.Unlock()
			return nil, err
		}
		rc = nc
		p.conn = rc
	}
	p.corr++
	corr := p.corr
	call := &roundsCall{done: make(chan struct{})}
	rc.waiters[corr] = call
	p.mu.Unlock()

	var f outFrame
	binary.LittleEndian.PutUint64(f.hdr[:8], corr)
	f.hdr[8] = msgType
	f.body = payload
	streamCalls.Inc()
	atomic.AddInt64(&streamInflight, 1)
	defer atomic.AddInt64(&streamInflight, -1)
	// fail resolves every waiter registered on rc, this call included, so
	// done is the one exit: with the reply, a transport error, or the
	// timeout. A reply that beats the timer simply wins.
	sendq := rc.writeq
	for {
		select {
		case sendq <- f:
			p.stats.add(true, 5+9+len(payload))
			sendq = nil
		case <-call.done:
			return call.resp, call.err
		case <-expired:
			p.fail(rc, fmt.Errorf("transport: call to %s timed out after %v", p.addr, timeout))
			expired = nil
		}
	}
}

// readLoop owns the connection's read side, resolving waiters as replies
// arrive — in whatever order the server finished them.
func (p *StreamPeer) readLoop(rc *roundsConn) {
	for {
		msgType, payload, err := rc.fc.ReadFrame()
		if err != nil {
			p.fail(rc, err)
			return
		}
		switch msgType {
		case msgRoundsReply:
			var rf ReplyFrame
			if err := rf.UnmarshalBinary(payload); err != nil {
				p.fail(rc, err)
				return
			}
			p.mu.Lock()
			call := rc.waiters[rf.Corr]
			delete(rc.waiters, rf.Corr)
			p.mu.Unlock()
			if call == nil {
				continue // reply for a caller already failed out
			}
			p.stats.add(false, frameLen(payload))
			if rf.OK {
				// rf.Body aliases payload, which is fresh per frame and
				// handed to exactly this caller — safe to return as-is.
				call.resp = rf.Body
			} else {
				call.err = fmt.Errorf("transport: remote error: %s", rf.Body)
			}
			close(call.done)
		case MsgError:
			p.fail(rc, fmt.Errorf("transport: remote stream error: %s", payload))
			return
		default:
			p.fail(rc, fmt.Errorf("transport: unexpected frame type %#x on rounds stream", msgType))
			return
		}
	}
}

// writeBurst writes first and then whatever else is already queued on q,
// and flushes once when the queue momentarily empties (or is closed): a
// burst of concurrent rounds costs one syscall rather than one per frame.
// Both ends of a rounds stream write through it.
func writeBurst(fc *FrameConn, msgType byte, first outFrame, q <-chan outFrame) error {
	for f, ok := first, true; ok; {
		if err := fc.WriteFrameParts(msgType, f.hdr[:], f.body); err != nil {
			return err
		}
		select {
		case f, ok = <-q:
		default:
			ok = false
		}
	}
	return fc.Flush()
}

// writeLoop owns the connection's write side, draining queued call frames
// burst by burst.
func (p *StreamPeer) writeLoop(rc *roundsConn) {
	for {
		select {
		case <-rc.dead:
			return
		case f := <-rc.writeq:
			if err := writeBurst(rc.fc, msgRoundsCall, f, rc.writeq); err != nil {
				p.fail(rc, err)
				return
			}
			streamFlushes.Inc()
		}
	}
}

// fail tears down one connection and resolves every call registered on it
// with err. Idempotent and safe from any goroutine; the peer itself stays
// usable (the next Call re-dials) unless it was Closed.
func (p *StreamPeer) fail(rc *roundsConn, err error) {
	rc.once.Do(func() {
		close(rc.dead)
		rc.fc.Close()
		streamErrors.Inc()
	})
	p.mu.Lock()
	if p.conn == rc {
		p.conn = nil
	}
	waiters := rc.waiters
	rc.waiters = make(map[uint64]*roundsCall)
	p.mu.Unlock()
	for _, call := range waiters {
		call.err = err
		close(call.done)
	}
}

// Stats implements Peer.
func (p *StreamPeer) Stats() *Stats { return &p.stats }

// Close implements Peer: fails pending calls and refuses further ones.
func (p *StreamPeer) Close() error {
	p.mu.Lock()
	p.closed = true
	rc := p.conn
	p.mu.Unlock()
	if rc != nil {
		p.fail(rc, ErrClosed)
	}
	return nil
}

// roundsDispatcher is the server side: a StreamHandler that decodes call
// frames, dispatches each to the request/response Handler on its own
// goroutine (concurrent calls proceed concurrently — the whole point), and
// queues correlated replies for a writer goroutine that drains bursts into
// the buffered writer and flushes once per burst, not once per reply.
func roundsDispatcher(h Handler) StreamHandler {
	return func(open []byte, fc *FrameConn) {
		writeq := make(chan outFrame, 512)
		werr := make(chan struct{})  // closed when the writer hits an error
		wdone := make(chan struct{}) // closed when the writer exits
		go func() {
			defer close(wdone)
			for f := range writeq {
				if writeBurst(fc, msgRoundsReply, f, writeq) != nil {
					fc.Close() // unblock the read loop
					close(werr)
					return
				}
			}
		}()
		var wg sync.WaitGroup
		defer func() {
			wg.Wait()     // all handlers finished: no more writeq senders
			close(writeq) // writer drains the tail, flushes, exits
			<-wdone
		}()
		for {
			msgType, payload, err := fc.ReadFrame()
			if err != nil {
				return
			}
			if msgType != msgRoundsCall {
				fc.WriteFrame(MsgError, []byte("transport: expected rounds call frame"))
				return
			}
			var cf CallFrame
			if err := cf.UnmarshalBinary(payload); err != nil {
				fc.WriteFrame(MsgError, []byte(err.Error()))
				return
			}
			wg.Add(1)
			go func(cf CallFrame) {
				defer wg.Done()
				resp, herr := h(cf.Type, cf.Body)
				var f outFrame
				binary.LittleEndian.PutUint64(f.hdr[:8], cf.Corr)
				if herr != nil {
					f.body = []byte(herr.Error())
				} else {
					f.hdr[8] = 1
					f.body = resp
				}
				select {
				case writeq <- f:
				case <-werr: // writer is gone; the stream is tearing down
				}
			}(cf)
		}
	}
}
