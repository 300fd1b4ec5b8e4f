package ingest

import (
	"errors"
	"sync"
	"time"

	"prio/internal/core"
)

// ErrAbandoned reports a submission that exhausted its delivery attempts.
var ErrAbandoned = errors.New("ingest: submission abandoned after max attempts")

// FailoverConfig tunes a FailoverSubmitter.
type FailoverConfig struct {
	// Dial opens a stream to the current leader. The failover layer owns ack
	// interception, so the callee must build the StreamSubmitter with the
	// provided onAck (typically Dial(resolveLeader(), SubmitterConfig{TLS:
	// tls, OnAck: onAck})). Re-resolving the leader on every call is the
	// point: after a failover this is what re-targets the stream.
	Dial func(onAck func(Ack)) (*StreamSubmitter, error)
	// MaxAttempts bounds delivery attempts per submission, counting the
	// first (default 4). A shed, failed, or stream-death outcome consumes
	// one attempt; beyond the budget the submission is abandoned.
	MaxAttempts int
	// DialAttempts bounds consecutive failed dials before giving up
	// (default 20). Between dials the submitter backs off.
	DialAttempts int
	// RedialBackoff is the initial wait after a failed dial, doubling up to
	// a 2s cap (default 100ms).
	RedialBackoff time.Duration
	// OnFinal, when set, observes every final decision: accepted, rejected,
	// or (with Status StatusFailed and the submission abandoned) the end of
	// the retry budget. Retried sheds and failures are not surfaced here —
	// they are the layer's job to hide.
	OnFinal func(Ack)
}

func (c FailoverConfig) withDefaults() FailoverConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.DialAttempts <= 0 {
		c.DialAttempts = 20
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 100 * time.Millisecond
	}
	return c
}

// FailoverStats counts a FailoverSubmitter's work. The client-side loss
// ledger closes as Submitted == Accepted + Rejected + Abandoned once Wait
// returns: every submission reached a final state.
type FailoverStats struct {
	Submitted uint64
	Accepted  uint64
	Rejected  uint64
	// ShedRetried counts shed acks answered with a re-submission.
	ShedRetried uint64
	// FailedRetried counts failed acks and stream deaths answered with a
	// re-submission.
	FailedRetried uint64
	// Failovers counts stream deaths that stranded in-flight submissions
	// (each triggers a re-dial of the — possibly new — leader).
	Failovers uint64
	// Redials counts successful Dial calls after the first.
	Redials uint64
	// Abandoned counts submissions that exhausted MaxAttempts.
	Abandoned uint64
}

// entry is one logical submission riding the failover layer.
type entry struct {
	sub      *core.Submission
	attempts int
	start    time.Time
}

// ackKey namespaces stream-local ack IDs by dial generation, so a late ack
// from a dead stream cannot resolve a submission already re-queued onto its
// successor.
type ackKey struct {
	gen uint64
	id  uint64
}

// FailoverSubmitter wraps StreamSubmitter with at-least-once delivery across
// leader failovers: when the stream dies (leader killed) it re-dials via
// cfg.Dial — which re-resolves the leader — and re-submits everything that
// was in flight; shed and failed acks are retried the same way up to
// MaxAttempts.
//
// At-least-once means a submission whose ack was lost with the old leader
// may be verified and aggregated twice by the server side. That skews the
// aggregate by the duplicate's value but never breaks privacy (each copy is
// an independently valid share set); deployments that need exactly-once must
// deduplicate behind ingest. What this layer guarantees is the client-side
// ledger: after Wait, Submitted == Accepted + Rejected + Abandoned.
type FailoverSubmitter struct {
	cfg FailoverConfig

	mu       sync.Mutex
	cond     *sync.Cond
	cur      *StreamSubmitter
	gen      uint64 // current dial generation
	dialing  bool
	inflight map[ackKey]*entry
	early    map[ackKey]Ack // acks that beat their send to the inflight table
	retryq   []*entry
	pending  int // inflight + queued + being-sent, for Wait
	closed   bool
	dialErr  error // terminal dial failure, poisons future sends
	stats    FailoverStats
}

// NewFailoverSubmitter builds the failover layer. The first dial happens
// lazily on the first Submit.
func NewFailoverSubmitter(cfg FailoverConfig) (*FailoverSubmitter, error) {
	if cfg.Dial == nil {
		return nil, errors.New("ingest: FailoverConfig.Dial is required")
	}
	f := &FailoverSubmitter{
		cfg:      cfg.withDefaults(),
		inflight: make(map[ackKey]*entry),
		early:    make(map[ackKey]Ack),
	}
	f.cond = sync.NewCond(&f.mu)
	go f.retryLoop()
	return f, nil
}

// Submit delivers one submission with retries, blocking while the current
// stream's credit window is full (or a re-dial is in progress). The final
// decision arrives via OnFinal; Wait drains everything outstanding.
func (f *FailoverSubmitter) Submit(sub *core.Submission) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrSubmitterClosed
	}
	f.stats.Submitted++
	f.pending++
	f.mu.Unlock()
	e := &entry{sub: sub, attempts: 1, start: time.Now()}
	if err := f.send(e); err != nil {
		f.abandon(e)
		return err
	}
	return nil
}

// Stats snapshots the counters.
func (f *FailoverSubmitter) Stats() FailoverStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Wait blocks until every submission has reached a final state (accepted,
// rejected, or abandoned).
func (f *FailoverSubmitter) Wait() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.pending > 0 && !f.closed {
		f.cond.Wait()
	}
}

// Close tears the layer down. Submissions still in flight or queued for
// retry are abandoned.
func (f *FailoverSubmitter) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	cur := f.cur
	f.cur = nil
	orphans := f.takeOrphansLocked(f.gen)
	orphans = append(orphans, f.retryq...)
	f.retryq = nil
	f.cond.Broadcast()
	f.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
	for _, e := range orphans {
		f.abandon(e)
	}
	return nil
}

// send places e on a live stream, re-dialing as needed. It blocks on the
// stream's credit window — backpressure propagates to the caller.
func (f *FailoverSubmitter) send(e *entry) error {
	for {
		s, gen, err := f.stream()
		if err != nil {
			return err
		}
		id, err := s.Submit(e.sub)
		if err != nil {
			// The stream died under us; drop it (if still current) and loop
			// into a fresh dial. The watcher goroutine requeues whatever else
			// was in flight.
			f.dropStream(s)
			continue
		}
		// The stream's read goroutine may have acked e already, or s may
		// have died and its watcher requeued what it found in flight, all
		// before this registration.
		k := ackKey{gen: gen, id: id}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return ErrSubmitterClosed
		}
		a, acked := f.early[k]
		delete(f.early, k)
		live := f.cur == s
		if live && !acked {
			f.inflight[k] = e
		}
		f.mu.Unlock()
		if acked {
			f.decide(e, a)
		} else if !live {
			continue // s is dead and its watcher missed e: send it again
		}
		return nil
	}
}

// stream returns the current live stream, dialing one (with backoff) if
// needed. Concurrent callers during a dial wait rather than dialing too.
func (f *FailoverSubmitter) stream() (*StreamSubmitter, uint64, error) {
	f.mu.Lock()
	for {
		if f.closed {
			f.mu.Unlock()
			return nil, 0, ErrSubmitterClosed
		}
		if f.dialErr != nil {
			err := f.dialErr
			f.mu.Unlock()
			return nil, 0, err
		}
		if f.cur != nil {
			s, gen := f.cur, f.gen
			f.mu.Unlock()
			return s, gen, nil
		}
		if f.dialing {
			f.cond.Wait()
			continue
		}
		f.dialing = true
		f.gen++
		gen := f.gen
		first := gen == 1
		f.mu.Unlock()

		s, err := f.dialWithBackoff(gen)

		f.mu.Lock()
		f.dialing = false
		if err != nil {
			f.dialErr = err
		} else if f.closed {
			f.mu.Unlock()
			s.Close()
			f.mu.Lock()
		} else {
			f.cur = s
			if !first {
				f.stats.Redials++
			}
			go f.watch(s, gen)
		}
		f.cond.Broadcast()
	}
}

// dialWithBackoff runs cfg.Dial up to DialAttempts times. The onAck closure
// binds this stream's generation so its acks resolve only entries submitted
// on it.
func (f *FailoverSubmitter) dialWithBackoff(gen uint64) (*StreamSubmitter, error) {
	backoff := f.cfg.RedialBackoff
	var lastErr error
	for try := 0; try < f.cfg.DialAttempts; try++ {
		if try > 0 {
			time.Sleep(backoff)
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
		}
		f.mu.Lock()
		dead := f.closed
		f.mu.Unlock()
		if dead {
			return nil, ErrSubmitterClosed
		}
		s, err := f.cfg.Dial(func(a Ack) { f.onAck(gen, a) })
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// dropStream forgets s as the current stream so the next send re-dials.
func (f *FailoverSubmitter) dropStream(s *StreamSubmitter) {
	f.mu.Lock()
	if f.cur == s {
		f.cur = nil
	}
	f.mu.Unlock()
}

// watch requeues everything in flight on s when it dies.
func (f *FailoverSubmitter) watch(s *StreamSubmitter, gen uint64) {
	<-s.Done()
	f.mu.Lock()
	if f.cur == s {
		f.cur = nil
	}
	closed := f.closed
	orphans := f.takeOrphansLocked(gen)
	if len(orphans) > 0 && !closed {
		f.stats.Failovers++
	}
	f.mu.Unlock()
	for _, e := range orphans {
		if closed {
			f.abandon(e)
			continue
		}
		f.retry(e, &f.stats.FailedRetried)
	}
}

// takeOrphansLocked removes and returns every inflight entry of generation
// gen. Caller holds f.mu.
func (f *FailoverSubmitter) takeOrphansLocked(gen uint64) []*entry {
	var out []*entry
	for k, e := range f.inflight {
		if k.gen == gen {
			delete(f.inflight, k)
			out = append(out, e)
		}
	}
	return out
}

// onAck resolves one stream ack against the inflight table. It runs on a
// stream's read goroutine, so the retry path only enqueues — the retryLoop
// goroutine does the (potentially blocking) re-submission.
func (f *FailoverSubmitter) onAck(gen uint64, a Ack) {
	k := ackKey{gen: gen, id: a.ID}
	f.mu.Lock()
	e, ok := f.inflight[k]
	if ok {
		delete(f.inflight, k)
	} else if gen == f.gen && f.cur != nil {
		// The stream is live, so its send has not registered the entry
		// yet; it picks the ack up from here.
		f.early[k] = a
	}
	f.mu.Unlock()
	if !ok {
		return // early, or late for an entry already requeued elsewhere
	}
	f.decide(e, a)
}

// decide books an acked entry: final, or one more attempt.
func (f *FailoverSubmitter) decide(e *entry, a Ack) {
	switch a.Status {
	case StatusAccepted, StatusRejected:
		f.final(e, a.Status)
	case StatusShed:
		f.retry(e, &f.stats.ShedRetried)
	default: // StatusFailed and anything unknown
		f.retry(e, &f.stats.FailedRetried)
	}
}

// retry spends one attempt and requeues e, or abandons it past the budget.
// counter points at the stats field tallying this retry flavor.
func (f *FailoverSubmitter) retry(e *entry, counter *uint64) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		f.abandon(e)
		return
	}
	e.attempts++
	if e.attempts > f.cfg.MaxAttempts {
		f.mu.Unlock()
		f.abandon(e)
		return
	}
	*counter++
	f.retryq = append(f.retryq, e)
	f.cond.Broadcast()
	f.mu.Unlock()
}

// retryLoop re-submits queued entries off the ack/watch goroutines, where
// blocking on credits would stall ack intake.
func (f *FailoverSubmitter) retryLoop() {
	f.mu.Lock()
	for {
		for len(f.retryq) == 0 && !f.closed {
			f.cond.Wait()
		}
		if f.closed {
			f.mu.Unlock()
			return
		}
		e := f.retryq[0]
		f.retryq = f.retryq[1:]
		f.mu.Unlock()
		if err := f.send(e); err != nil {
			f.abandon(e)
		}
		f.mu.Lock()
	}
}

// final books a decided submission and notifies OnFinal.
func (f *FailoverSubmitter) final(e *entry, status AckStatus) {
	f.mu.Lock()
	switch status {
	case StatusAccepted:
		f.stats.Accepted++
	case StatusRejected:
		f.stats.Rejected++
	}
	f.pending--
	if f.pending == 0 {
		f.cond.Broadcast()
	}
	f.mu.Unlock()
	if f.cfg.OnFinal != nil {
		f.cfg.OnFinal(Ack{Status: status, Latency: time.Since(e.start)})
	}
}

// abandon ends a submission without a decision.
func (f *FailoverSubmitter) abandon(e *entry) {
	f.mu.Lock()
	f.stats.Abandoned++
	f.pending--
	if f.pending == 0 {
		f.cond.Broadcast()
	}
	f.mu.Unlock()
	if f.cfg.OnFinal != nil {
		f.cfg.OnFinal(Ack{Status: StatusFailed, Latency: time.Since(e.start)})
	}
}
