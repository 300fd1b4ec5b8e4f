package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prio/internal/core"
	"prio/internal/telemetry"
	"prio/internal/transport"
)

// Sink is where decoded submissions go: the verification pipeline, or a
// stand-in for tests. core.Pipeline implements it.
//
// A Sink that also has a MaxSubmission() int method (sizedSink; core.Pipeline
// has one) reports the largest submission it can decode, in
// Submission.Marshal bytes. The server then refuses a longer submit frame at
// its length prefix, before buffering any of it. Without the method, or
// with a result ≤ 0, submit frames are bounded by transport.MaxFrame alone.
//
// A Sink that also has a MaxHeld() int method (heldSink; core.Pipeline has
// one) reports how many submissions it can hold at once. With dynamic
// credits the tuner then grants the busy streams no more than that between
// them (see tune). Without the method, or with a result ≤ 0, only the intake
// queue's free slots bound the grants.
type Sink interface {
	// SubmitFunc enqueues one submission, blocking while the sink is
	// saturated, and invokes fn with the decision once it is made.
	SubmitFunc(sub *core.Submission, fn func(core.SubmitResult)) error
	// TrySubmitFunc is the non-blocking SubmitFunc: false means the sink's
	// queue was full and fn will never run.
	TrySubmitFunc(sub *core.Submission, fn func(core.SubmitResult)) (bool, error)
}

// sizedSink is a Sink that reports its largest acceptable submission.
type sizedSink interface {
	MaxSubmission() int
}

// heldSink is a Sink that reports how many submissions it can hold.
type heldSink interface {
	MaxHeld() int
}

// Defaults for Config's zero values.
const (
	DefaultCredits      = 64
	DefaultQueueDepth   = 1024
	DefaultMinCredits   = 16
	DefaultTuneInterval = 100 * time.Millisecond
)

// Config tunes the server side of the ingest subsystem.
type Config struct {
	// Credits is the per-stream window: how many submissions one stream may
	// have un-acked. A compliant client stalls at this bound, so the
	// server's per-stream memory exposure is fixed (default 64).
	Credits int
	// QueueDepth bounds the intake queue buffering submissions the pipeline
	// could not take immediately. Arrivals beyond it are shed. Keep it at
	// least Credits, or a single fast stream can be shed under a slow
	// pipeline (default 1024).
	QueueDepth int
	// Registry receives the ingest metric families. Nil means a private
	// registry: nothing is exported, and Stats counts either way.
	// prio-server passes telemetry.Default so the admin endpoint sees them.
	Registry *telemetry.Registry
	// Tracer, when non-nil, samples submission lifecycles at the ingest
	// edge: sampled submissions carry a Trace through the pipeline and land
	// in the tracer's ring on decision.
	Tracer *telemetry.Tracer
	// Gate, when non-nil, is consulted once per stream open: a non-nil
	// error refuses the stream with an MsgError frame carrying the error
	// text. Cluster followers install their node's LeaderGate here so
	// clients dialing a non-leader get an immediate, descriptive refusal
	// (naming the sitting leader) instead of a silently idle stream.
	Gate func() error
	// DynamicCredits turns on per-stream window tuning: a background tuner
	// divides the intake queue's free space, or what the sink can hold if
	// that is less, among the streams that are actually submitting, so a
	// few busy streams may grow their windows up to MaxCredits while idle
	// streams decay to MinCredits and keep the aggregate exposure bounded. Off, every stream keeps the static
	// Credits window for its whole life, as before.
	DynamicCredits bool
	// MinCredits floors a tuned window (default 16): even an idle stream
	// can burst this far before its first retune.
	MinCredits int
	// MaxCredits caps a tuned window (default 8×Credits): one monopolist
	// stream cannot grow past it no matter how empty the queue is.
	MaxCredits int
	// TuneInterval is the retune cadence (default 100ms).
	TuneInterval time.Duration
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Credits <= 0 {
		c.Credits = DefaultCredits
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MinCredits <= 0 {
		c.MinCredits = DefaultMinCredits
	}
	if c.MinCredits > c.Credits {
		c.MinCredits = c.Credits
	}
	if c.MaxCredits < c.Credits {
		c.MaxCredits = 8 * c.Credits
	}
	if c.TuneInterval <= 0 {
		c.TuneInterval = DefaultTuneInterval
	}
	return c
}

// intakeItem is one submission parked in the intake queue because the
// pipeline was momentarily full.
type intakeItem struct {
	st  *stream
	id  uint64
	sub *core.Submission
	rcv time.Time // frame decode time
	enq time.Time // intake enqueue time, for the queue-wait histogram
}

// Server terminates ingest streams: it decodes pipelined submission frames,
// routes them into the Sink with credit-based backpressure, and acks each
// decision back on the stream that submitted it. Register Handler with a
// transport server's OnStream.
type Server struct {
	sink     Sink
	cfg      Config
	maxFrame int // submit-frame payload limit: transport.MaxFrame unless the sink is sized
	maxHeld  int // submissions the sink can hold (heldSink); ≤ 0 when it does not say

	intake chan intakeItem
	quit   chan struct{}
	wg     sync.WaitGroup

	totals Stats // the subsystem-wide ledger, atomics (see Stats)
	m      *ingestMetrics
	tracer *telemetry.Tracer

	mu       sync.Mutex
	streams  map[uint64]*stream
	streamWG sync.WaitGroup // active handleStream readers
	nextID   uint64
	closed   bool
}

// NewServer builds an ingest server feeding sink and starts its intake pump.
func NewServer(sink Sink, cfg Config) *Server {
	s := &Server{
		sink:    sink,
		cfg:     cfg.withDefaults(),
		quit:    make(chan struct{}),
		streams: make(map[uint64]*stream),
		tracer:  cfg.Tracer,
	}
	s.maxFrame = transport.MaxFrame
	if ss, ok := sink.(sizedSink); ok {
		if n := ss.MaxSubmission(); n > 0 {
			s.maxFrame = 8 + n // the submission ID, then the submission
		}
	}
	if hs, ok := sink.(heldSink); ok {
		s.maxHeld = hs.MaxHeld()
	}
	s.intake = make(chan intakeItem, s.cfg.QueueDepth)
	reg := s.cfg.Registry
	if reg == nil {
		reg = telemetry.New()
	}
	s.m = newIngestMetrics(reg, s)
	s.wg.Add(1)
	go s.pump()
	if s.cfg.DynamicCredits {
		s.wg.Add(1)
		go s.tune()
	}
	return s
}

// Handler returns the transport.StreamHandler terminating ingest streams.
func (s *Server) Handler() transport.StreamHandler {
	return s.handleStream
}

// Stats returns the aggregate counters across all streams, past and
// present: the same totals the registry exports as prio_ingest_*_total.
func (s *Server) Stats() Stats { return s.totals.Snapshot() }

// Close refuses new streams, drops the active ones, and stops the intake
// pump. Ordering matters: the stream readers are gone before the pump, so
// no submission can be parked in the intake queue after its final drain —
// every received submission is either acked or died with its stream.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, st := range s.streams {
		st.kill()
	}
	s.mu.Unlock()
	s.streamWG.Wait()
	close(s.quit)
	s.wg.Wait()
}

// pump drains the intake queue into the sink's blocking path. Items land in
// intake only when the pipeline's own queue was full, so the pump spends its
// time blocked in SubmitFunc — exactly the backpressure point — while the
// per-stream readers stay responsive for acks and sheds.
func (s *Server) pump() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			for {
				select {
				case it := <-s.intake:
					it.sub.Trace.Finish("failed")
					it.st.decide(it.id, StatusFailed, it.rcv)
				default:
					return
				}
			}
		case it := <-s.intake:
			s.m.intakeDur.Observe(time.Since(it.enq))
			if err := s.sink.SubmitFunc(it.sub, func(r core.SubmitResult) {
				status := statusOf(r)
				it.sub.Trace.Finish(status.String())
				it.st.decide(it.id, status, it.rcv)
			}); err != nil {
				it.sub.Trace.Finish("failed")
				it.st.decide(it.id, StatusFailed, it.rcv)
			}
		}
	}
}

// stream is the server side of one ingest connection.
//
// The credit state follows the HTTP/2 flow-control shape rather than a bare
// counter so the window can move while submissions are in flight: target is
// what the tuner wants, window is what is enforced right now, and inflight
// is the charge against it. A grow raises window immediately; a shrink only
// lowers target, and window decays one slot per ack (see finish) — so a
// submission sent legally under the old window is never shed retroactively.
type stream struct {
	id  uint64
	srv *Server
	fc  *transport.FrameConn

	cmu      sync.Mutex
	target   int
	window   int
	inflight int
	lastRecv uint64 // received at the previous tune tick (tuner-only)

	acks     chan ackEntry
	dead     chan struct{}
	once     sync.Once
	received atomic.Uint64 // submit frames decoded: the tuner's activity signal
}

// kill marks the stream dead and closes its connection, releasing anything
// blocked on either (the reader in ReadFrame, the ack writer in Flush).
// Decisions arriving from the pipeline afterwards are dropped; the client
// is gone.
func (st *stream) kill() {
	st.once.Do(func() {
		close(st.dead)
		st.fc.Close()
	})
}

// finish records one decision and queues its ack. It runs on pipeline batch
// goroutines (whose contract is that it must NEVER block) and on the stream
// reader. The ack channel outgrows the credit window, so a compliant client
// cannot fill it: an overflow means the client overran its credits while
// not draining acks (or stopped reading entirely, wedging the ack writer
// against a full socket). Such a stream is dropped rather than allowed to
// stall a verification batch.
func (st *stream) finish(id uint64, status AckStatus) {
	st.srv.totals.countAck(status)
	st.cmu.Lock()
	if st.inflight > 0 {
		st.inflight--
	}
	if st.window > st.target {
		st.window-- // retire one slot of a pending shrink
	}
	st.cmu.Unlock()
	select {
	case st.acks <- ackEntry{id: id, status: status}:
	case <-st.dead:
	default:
		st.kill()
	}
}

// decide is finish plus the decision-latency observation: rcv is the
// submit frame's decode time.
func (st *stream) decide(id uint64, status AckStatus, rcv time.Time) {
	st.srv.m.decision.Observe(time.Since(rcv))
	st.finish(id, status)
}

// handleStream runs the per-connection protocol: hello, then a read loop
// feeding the sink, with a parallel ack writer batching decisions back.
func (s *Server) handleStream(open []byte, fc *transport.FrameConn) {
	if string(open) != magic {
		fc.WriteFrame(transport.MsgError, []byte(fmt.Sprintf("ingest: unknown subprotocol %q", open)))
		fc.Flush()
		return
	}
	if s.cfg.Gate != nil {
		if err := s.cfg.Gate(); err != nil {
			fc.WriteFrame(transport.MsgError, []byte(err.Error()))
			fc.Flush()
			return
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		fc.WriteFrame(transport.MsgError, []byte("ingest: server is shut down"))
		fc.Flush()
		return
	}
	s.nextID++
	st := &stream{
		id:     s.nextID,
		srv:    s,
		fc:     fc,
		target: s.cfg.Credits,
		window: s.cfg.Credits,
		acks:   make(chan ackEntry, s.cfg.MaxCredits+16),
		dead:   make(chan struct{}),
	}
	s.streams[st.id] = st
	s.streamWG.Add(1)
	s.mu.Unlock()
	atomic.AddUint64(&s.totals.Streams, 1)

	defer func() {
		st.kill()
		s.mu.Lock()
		delete(s.streams, st.id)
		// Fold the dead connection's wire counters into the process totals
		// under the same critical section that removes it from the live set,
		// so the wire CounterFuncs never count it twice (they sum live
		// streams under this mutex).
		s.m.foldWire(fc.Stats().Snapshot())
		s.mu.Unlock()
		s.streamWG.Done()
	}()

	hello := binary.LittleEndian.AppendUint32(nil, uint32(s.cfg.Credits))
	if err := fc.WriteFrame(msgHello, hello); err != nil {
		return
	}
	if err := fc.Flush(); err != nil {
		return
	}
	go st.ackLoop(fc)

	fc.SetReadLimit(s.maxFrame)
	for {
		msgType, payload, err := fc.ReadFrame()
		if errors.Is(err, transport.ErrFrameSize) {
			// Refused at the length prefix, before any of it is buffered,
			// and the stream ends. A submit frame this long is one no
			// server could decode; it has no ID to ack, so it is counted
			// failed here. A frame of another type is a protocol error like
			// the two below and counts nothing.
			if msgType == msgSubmit {
				atomic.AddUint64(&s.totals.Received, 1)
				s.totals.countAck(StatusFailed)
			}
			fc.WriteFrame(transport.MsgError, []byte(fmt.Sprintf("ingest: frame of type %#x exceeds the %d-byte limit", msgType, s.maxFrame)))
			fc.Flush()
			return
		}
		if err != nil {
			return // client closed (or conn died): teardown
		}
		if msgType != msgSubmit {
			fc.WriteFrame(transport.MsgError, []byte(fmt.Sprintf("ingest: unexpected frame type %#x", msgType)))
			fc.Flush()
			return
		}
		rcv := time.Now()
		id, sub, err := decodeSubmit(payload)
		if err != nil {
			fc.WriteFrame(transport.MsgError, []byte(err.Error()))
			fc.Flush()
			return
		}
		st.received.Add(1)
		atomic.AddUint64(&s.totals.Received, 1)
		if tr := s.tracer.Sample(); tr != nil {
			tr.Stage("ingest.recv")
			sub.Trace = tr
		}
		st.route(id, sub, rcv)
		s.m.frameDur.Since(rcv)
	}
}

// route spends one credit and hands the submission to the sink: straight
// through when the pipeline has room, parked in the bounded intake queue
// when it is momentarily full, shed when that is full too. rcv is the
// submit frame's decode time for the latency histograms.
func (st *stream) route(id uint64, sub *core.Submission, rcv time.Time) {
	s := st.srv
	// Spend one window slot. A submission past the granted window is shed
	// unverified; its ack (like every ack) hands the slot back, so a
	// client that raced a little ahead recovers instead of wedging.
	st.cmu.Lock()
	st.inflight++
	over := st.inflight > st.window
	st.cmu.Unlock()
	if over {
		sub.Trace.Finish("shed")
		st.decide(id, StatusShed, rcv)
		return
	}
	ok, err := s.sink.TrySubmitFunc(sub, func(r core.SubmitResult) {
		status := statusOf(r)
		// Backstop: the verification pipeline finishes the trace with stage
		// detail before delivering the decision (Finish is first-wins), so
		// this only seals traces a simpler sink left open.
		sub.Trace.Finish(status.String())
		st.decide(id, status, rcv)
	})
	if err != nil {
		sub.Trace.Finish("failed")
		st.decide(id, StatusFailed, rcv)
		return
	}
	if ok {
		return
	}
	sub.Trace.Stage("ingest.intake")
	select {
	case s.intake <- intakeItem{st: st, id: id, sub: sub, rcv: rcv, enq: time.Now()}:
	default:
		sub.Trace.Finish("shed")
		st.decide(id, StatusShed, rcv)
	}
}

// tune is the dynamic-credit loop: every TuneInterval it divides the lesser
// of the intake queue's free space and what the sink can hold (maxHeld)
// among the streams that submitted since the last tick (or still have
// submissions in flight), clamps the share to [MinCredits, MaxCredits], and
// decays idle streams to MinCredits. The free space alone is the quantity
// the grants fill, so a tuner dividing only it swings: windows grow while
// the queue is empty, fill it, shrink, and grow again as it drains. What the
// sink can hold does not move, so where it is the lesser the windows settle
// at it and the intake queue is left for bursts. Retunes within 12.5% of
// the current target are suppressed so a steady load does not generate a
// msgCredit drizzle. The intent is the asymmetric fairness the intake queue
// wants: a handful of busy streams may take the whole queue between them,
// while thousands of idle streams keep only the floor exposure.
func (s *Server) tune() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.TuneInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
		}
		s.mu.Lock()
		streams := make([]*stream, 0, len(s.streams))
		for _, st := range s.streams {
			streams = append(streams, st)
		}
		s.mu.Unlock()
		if len(streams) == 0 {
			s.m.setBusyStreams(0)
			continue
		}
		busy := make([]bool, len(streams))
		nbusy := 0
		for i, st := range streams {
			recv := st.received.Load()
			st.cmu.Lock()
			active := st.inflight > 0 || recv != st.lastRecv
			st.lastRecv = recv
			st.cmu.Unlock()
			if active {
				busy[i] = true
				nbusy++
			}
		}
		s.m.setBusyStreams(nbusy)
		free := s.cfg.QueueDepth - len(s.intake)
		if s.maxHeld > 0 {
			free = min(free, s.maxHeld)
		}
		share := s.cfg.MinCredits
		if nbusy > 0 {
			share = free / nbusy
		}
		share = min(max(share, s.cfg.MinCredits), s.cfg.MaxCredits)
		for i, st := range streams {
			want := s.cfg.MinCredits
			if busy[i] {
				want = share
			}
			st.retune(want)
		}
	}
}

// retune moves one stream's window target to want, unless the change is
// within the hysteresis band. Grows take effect immediately; shrinks drain
// via finish. The client is informed with a msgCredit frame; a write error
// is ignored here because the stream's reader owns failure handling.
func (st *stream) retune(want int) {
	st.cmu.Lock()
	cur := st.target
	if 8*abs(want-cur) <= cur {
		st.cmu.Unlock()
		return
	}
	st.target = want
	if want > st.window {
		st.window = want
	}
	st.cmu.Unlock()
	st.srv.m.retunes.Inc()
	var msg [4]byte
	binary.LittleEndian.PutUint32(msg[:], uint32(want))
	if st.fc.WriteFrame(msgCredit, msg[:]) == nil {
		st.fc.Flush()
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// ackLoop batches decided submissions into ack frames. One frame per wakeup
// amortizes framing and flushes across every decision ready at that moment.
func (st *stream) ackLoop(fc *transport.FrameConn) {
	defer st.kill() // a dead writer must also release the reader
	batch := make([]ackEntry, 0, 64)
	for {
		select {
		case a := <-st.acks:
			batch = append(batch[:0], a)
		drain:
			for len(batch) < cap(batch) {
				select {
				case a := <-st.acks:
					batch = append(batch, a)
				default:
					break drain
				}
			}
			if err := writeAcks(fc, batch); err != nil {
				return
			}
		case <-st.dead:
			return
		}
	}
}
