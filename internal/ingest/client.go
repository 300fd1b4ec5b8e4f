package ingest

import (
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prio/internal/core"
	"prio/internal/transport"
)

// ErrSubmitterClosed reports use of a StreamSubmitter after Close.
var ErrSubmitterClosed = errors.New("ingest: submitter closed")

// Ack is one asynchronous per-submission decision, matched to its Submit
// call by ID.
type Ack struct {
	// ID is the value the matching Submit returned.
	ID uint64
	// Status is the server's decision.
	Status AckStatus
	// Latency spans Submit's call (including any wait for a credit) to the
	// ack's arrival.
	Latency time.Duration
}

// SubmitterConfig tunes a StreamSubmitter.
type SubmitterConfig struct {
	// TLS upgrades the connection when non-nil.
	TLS *tls.Config
	// OnAck, when set, observes every decision. It runs on the submitter's
	// read goroutine: a blocking callback stalls ack intake and therefore
	// credit replenishment. The acked submission's credit returns only after
	// OnAck does, so OnAck must not call Submit.
	OnAck func(Ack)
}

// SubmitterStats counts a submitter's work. Read with Snapshot.
type SubmitterStats struct {
	Submitted uint64
	Accepted  uint64
	Rejected  uint64
	Shed      uint64
	Failed    uint64
}

// StreamSubmitter is the client side of the ingest subsystem: it holds one
// persistent (typically TLS) connection to the leader, pipelines many framed
// submissions in flight, and consumes asynchronous per-submission acks. The
// server's credit grant bounds how far it may run ahead; Submit blocks once
// the window is full, so overload turns into queuing here, at the client.
//
// Submit may be called from many goroutines; acks resolve in server order,
// not submission order.
type StreamSubmitter struct {
	fc    *transport.FrameConn
	onAck func(Ack)

	writeq chan queuedSubmit // submissions awaiting the writer

	dead chan struct{} // closed on first failure or Close

	mu          sync.Mutex
	cond        *sync.Cond // signaled when the window opens, outstanding hits zero, or the stream dies
	pending     map[uint64]time.Time
	nextID      uint64
	outstanding int
	limit       int // the server's current window grant (msgCredit retunes it)
	err         error

	stats SubmitterStats
}

// Dial opens a streaming ingest session with the leader at addr.
func Dial(addr string, cfg SubmitterConfig) (*StreamSubmitter, error) {
	fc, err := transport.DialStream(addr, cfg.TLS)
	if err != nil {
		return nil, err
	}
	if err := fc.WriteFrame(transport.MsgStreamOpen, []byte(magic)); err != nil {
		fc.Close()
		return nil, err
	}
	if err := fc.Flush(); err != nil {
		fc.Close()
		return nil, err
	}
	msgType, payload, err := fc.ReadFrame()
	if err != nil {
		fc.Close()
		return nil, err
	}
	if msgType == transport.MsgError {
		fc.Close()
		return nil, fmt.Errorf("ingest: server refused stream: %s", payload)
	}
	if msgType != msgHello || len(payload) != 4 {
		fc.Close()
		return nil, errProto
	}
	credits := int(binary.LittleEndian.Uint32(payload))
	if credits < 1 || credits > 1<<20 {
		fc.Close()
		return nil, fmt.Errorf("ingest: implausible credit grant %d", credits)
	}

	s := &StreamSubmitter{
		fc:    fc,
		onAck: cfg.OnAck,
		// The queue outgrows the initial window so a dynamic-credit grow
		// (msgCredit) widens the pipeline without the writer queue becoming
		// the new bottleneck.
		writeq:  make(chan queuedSubmit, max(2*credits, 256)),
		dead:    make(chan struct{}),
		pending: make(map[uint64]time.Time),
		limit:   credits,
	}
	s.cond = sync.NewCond(&s.mu)
	go s.readLoop()
	go s.writeLoop()
	return s, nil
}

// Credits returns the server's current window grant for this stream. Under
// dynamic credits it moves with the server's msgCredit retunes.
func (s *StreamSubmitter) Credits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.limit
}

// Submit queues one submission on the stream and returns its ID, blocking
// while the credit window is exhausted (the server is behind — queue here
// rather than on its floor). The decision arrives asynchronously via OnAck;
// Wait blocks until every outstanding submission is decided. The stream's
// writer encodes sub from its bundles after Submit returns, so they must not
// change until its ack arrives.
func (s *StreamSubmitter) Submit(sub *core.Submission) (uint64, error) {
	start := time.Now() // window wait is part of the measured latency
	s.mu.Lock()
	for s.err == nil && s.outstanding >= s.limit {
		s.cond.Wait()
	}
	if s.err != nil {
		s.mu.Unlock()
		return 0, s.Err()
	}
	s.nextID++
	id := s.nextID
	s.pending[id] = start
	s.outstanding++
	s.mu.Unlock()
	atomic.AddUint64(&s.stats.Submitted, 1)
	select {
	case s.writeq <- queuedSubmit{id, sub}:
		return id, nil
	case <-s.dead:
		s.mu.Lock()
		delete(s.pending, id)
		s.outstanding--
		s.mu.Unlock()
		return 0, s.Err()
	}
}

// Outstanding reports how many submissions await their ack.
func (s *StreamSubmitter) Outstanding() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.outstanding
}

// Stats snapshots the submitter's counters.
func (s *StreamSubmitter) Stats() SubmitterStats {
	return SubmitterStats{
		Submitted: atomic.LoadUint64(&s.stats.Submitted),
		Accepted:  atomic.LoadUint64(&s.stats.Accepted),
		Rejected:  atomic.LoadUint64(&s.stats.Rejected),
		Shed:      atomic.LoadUint64(&s.stats.Shed),
		Failed:    atomic.LoadUint64(&s.stats.Failed),
	}
}

// Done returns a channel that is closed when the stream dies — transport
// failure, server error frame, or Close. After it fires, Err reports why and
// any still-outstanding submissions will never be acked; a failover layer
// uses this as its re-dial trigger.
func (s *StreamSubmitter) Done() <-chan struct{} { return s.dead }

// Err returns the error that killed the stream, if any.
func (s *StreamSubmitter) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return ErrSubmitterClosed
}

// Wait blocks until every outstanding submission has been acked, returning
// the stream error if it died first.
func (s *StreamSubmitter) Wait() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.outstanding > 0 && s.err == nil {
		s.cond.Wait()
	}
	return s.err
}

// Close tears the stream down. In-flight submissions whose acks have not
// arrived are abandoned; call Wait first for a graceful drain.
func (s *StreamSubmitter) Close() error {
	s.fail(ErrSubmitterClosed)
	return nil
}

// fail records the first error, wakes every blocked caller, and closes the
// connection.
func (s *StreamSubmitter) fail(err error) {
	s.mu.Lock()
	already := s.err != nil
	if !already {
		s.err = err
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	if already {
		return
	}
	close(s.dead)
	s.fc.Close()
}

// writeLoop drains queued submissions onto the wire, flushing whenever the
// queue momentarily empties — the batching that turns many small Submits
// into few syscalls without adding latency under light load.
func (s *StreamSubmitter) writeLoop() {
	for {
		select {
		case q := <-s.writeq:
			if err := writeSubmit(s.fc, q); err != nil {
				s.fail(err)
				return
			}
		drain:
			for {
				select {
				case q := <-s.writeq:
					if err := writeSubmit(s.fc, q); err != nil {
						s.fail(err)
						return
					}
				default:
					break drain
				}
			}
			if err := s.fc.Flush(); err != nil {
				s.fail(err)
				return
			}
		case <-s.dead:
			return
		}
	}
}

// readLoop consumes ack frames, matching each decision to its pending
// submission by ID and returning the credit.
func (s *StreamSubmitter) readLoop() {
	for {
		msgType, payload, err := s.fc.ReadFrame()
		if err != nil {
			s.fail(err)
			return
		}
		switch msgType {
		case msgAcks:
			if err := decodeAcks(payload, s.complete); err != nil {
				s.fail(err)
				return
			}
		case msgCredit:
			if len(payload) != 4 {
				s.fail(errProto)
				return
			}
			n := int(binary.LittleEndian.Uint32(payload))
			if n < 1 || n > 1<<20 {
				s.fail(fmt.Errorf("ingest: implausible credit retune %d", n))
				return
			}
			s.mu.Lock()
			s.limit = n
			s.cond.Broadcast() // a grow may unblock window-waiting Submits
			s.mu.Unlock()
		case transport.MsgError:
			s.fail(fmt.Errorf("ingest: server error: %s", payload))
			return
		default:
			s.fail(fmt.Errorf("ingest: unexpected frame type %#x", msgType))
			return
		}
	}
}

// complete resolves one acked submission. It counts the decision and runs
// OnAck before it frees the submission's slot, so once Wait returns, Stats
// and every OnAck already reflect all decisions.
func (s *StreamSubmitter) complete(id uint64, status AckStatus) {
	s.mu.Lock()
	start, ok := s.pending[id]
	delete(s.pending, id)
	s.mu.Unlock()
	if !ok {
		return // unknown ID: tolerate (e.g. duplicate ack) rather than kill the stream
	}
	switch status {
	case StatusAccepted:
		atomic.AddUint64(&s.stats.Accepted, 1)
	case StatusRejected:
		atomic.AddUint64(&s.stats.Rejected, 1)
	case StatusShed:
		atomic.AddUint64(&s.stats.Shed, 1)
	case StatusFailed:
		atomic.AddUint64(&s.stats.Failed, 1)
	}
	if s.onAck != nil {
		s.onAck(Ack{ID: id, Status: status, Latency: time.Since(start)})
	}
	s.mu.Lock()
	s.outstanding--
	// Wake window-blocked Submits (the slot this ack frees) and Wait (when
	// the stream drained).
	s.cond.Broadcast()
	s.mu.Unlock()
}
