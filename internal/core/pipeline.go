package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prio/internal/field"
	"prio/internal/telemetry"
)

// Pipeline is the sharded, concurrent aggregation front-end: it accepts a
// stream of client submissions and fans them out across several leader
// sessions that verify batches in parallel against the shared server set.
//
// The paper's protocol makes this legal: verification of distinct
// submissions is independent (Section 4.2), any server may lead for a slice
// of the traffic (Appendix I / Figure 5), and the servers' accumulators are
// order-insensitive sums — so K concurrent leader sessions produce exactly
// the aggregate a single serial leader would. Each session owns a private
// (challenge, batch) ID namespace (NewLeaderSession), so sessions never
// collide in the servers' state tables. See docs/PIPELINE.md for the design
// write-up.
//
// Shape: Submit → bounded queue → K shard workers, each looping
// (collect up to MaxBatch, ProcessBatch, record). Workers batch
// adaptively — under light load a submission rides alone for low latency;
// under heavy load batches fill to MaxBatch, amortizing the per-round
// broadcasts. Over TCP, transport.StreamPeer keeps every shard's rounds in
// flight on each server connection at once.
type Pipeline[Fd field.Field[E], E any] struct {
	cfg      PipelineConfig
	sessions []*Leader[Fd, E]
	queue    chan pipeJob
	stopping chan struct{} // closed by Close: retry backoffs abort immediately

	wg      sync.WaitGroup
	shards  []ShardStats
	refused uint64 // submissions refused unqueued by TrySubmitFunc (queue full)
	m       *pipeMetrics

	// closeMu makes Submit's send atomic with respect to Close: senders
	// hold the read side across the channel send (many may block there at
	// once), Close takes the write side before closing the queue, so a
	// send on a closed channel is impossible. Workers never touch closeMu,
	// so they keep draining the queue and blocked senders always make
	// progress.
	closeMu sync.RWMutex
	closed  bool

	mu      sync.Mutex
	quiet   *sync.Cond // signaled when pending returns to zero
	pending int64      // submissions accepted but not yet decided
	err     error      // first shard failure (sticky)
}

// PipelineConfig tunes a Pipeline. The zero value gives one shard per CPU,
// batches of up to 16, and a queue of 4 batches per shard.
type PipelineConfig struct {
	// Shards is the number of concurrent leader sessions (1–255;
	// default GOMAXPROCS, the paper's "one leader slice per core").
	Shards int
	// MaxBatch bounds how many submissions one verification round covers
	// (default 16, the batch size the seed's benchmarks use).
	MaxBatch int
	// QueueDepth is the submission queue capacity; Submit blocks when the
	// queue is full, providing backpressure (default 4·Shards·MaxBatch).
	QueueDepth int
	// Registry receives the pipeline's telemetry: stage-duration
	// histograms (queue wait, verification rounds, commit), batch-size
	// distribution, and outcome counters mirroring ShardStats. Nil gives
	// the pipeline a private registry — pass telemetry.Default (as
	// prio-server does) to expose the metrics on the admin endpoint.
	// Sharing one registry between two live pipelines merges their
	// counters; give each its own for per-instance numbers.
	Registry *telemetry.Registry
	// Retries is how many times a shard re-runs a failed batch before
	// counting its submissions Failed (default 0: fail fast, the
	// single-process behavior). Each re-run goes through ProcessBatch
	// afresh, so it allocates a new batch ID — the old attempt's
	// server-side state was already released by the abort path — and under
	// a cluster roster the re-run lands on whatever peers answer now, which
	// is how an interrupted round survives a leader failover.
	Retries int
	// RetryBackoff is the pause before the first re-run, doubling per
	// attempt (default 50ms when Retries > 0). Long enough for the health
	// checker to notice a dead peer and the roster to re-point.
	RetryBackoff time.Duration
}

// withDefaults resolves the zero values.
func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.Shards == 0 {
		// Clamp so the default never violates the 255-session namespace
		// limit on very wide hosts.
		c.Shards = min(runtime.GOMAXPROCS(0), 0xFF)
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 16
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Shards * c.MaxBatch
	}
	if c.Retries > 0 && c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	return c
}

// ShardStats counts one shard's work. Merged stats describe the whole
// pipeline; the Accepted total is cross-checked against the servers'
// accumulators in Pipeline.Aggregate.
type ShardStats struct {
	Batches   uint64 // verification rounds driven
	Processed uint64 // submissions decided
	Accepted  uint64 // submissions whose shares entered the accumulators
	Rejected  uint64 // submissions refused by SNIP/MPC verification
	Failed    uint64 // submissions lost to batch-level errors (after any retries)
	// Retried counts submission re-runs: a batch that failed its round and
	// was re-driven contributes its size here per extra attempt. Retried
	// submissions are not double-counted in Processed/Accepted/Rejected —
	// only the attempt that reaches a decision lands there.
	Retried uint64
	// FailedOver counts batch re-run attempts (each under a fresh batch ID,
	// the old attempt's server-side state released by the abort path).
	FailedOver uint64
	// Refused counts submissions TrySubmitFunc turned away with a full
	// queue (whole pipeline, not per shard). Whether a refusal is a loss is
	// the intake edge's call: the streaming ingest layer re-queues refusals
	// and sheds only when its own buffer also overflows (its IngestStats
	// carry the authoritative shed count), while a bare TrySubmitFunc
	// caller that does not retry loses the submission.
	Refused uint64
}

// merge adds o into s.
func (s *ShardStats) merge(o ShardStats) {
	s.Batches += o.Batches
	s.Processed += o.Processed
	s.Accepted += o.Accepted
	s.Rejected += o.Rejected
	s.Failed += o.Failed
	s.Retried += o.Retried
	s.FailedOver += o.FailedOver
	s.Refused += o.Refused
}

// pipeJob is one queued submission with an optional completion channel or
// callback.
type pipeJob struct {
	sub *Submission
	res chan<- SubmitResult
	fn  func(SubmitResult)
	enq time.Time // enqueue instant for the queue-wait histogram (zero when telemetry is off)
}

// finish delivers the decision to whichever completion the submitter chose.
func (j *pipeJob) finish(r SubmitResult) {
	if j.res != nil {
		j.res <- r
	}
	if j.fn != nil {
		j.fn(r)
	}
}

// SubmitResult reports one submission's outcome to a SubmitWait caller.
type SubmitResult struct {
	// Accepted is true when the servers verified the submission and added
	// its shares to their accumulators.
	Accepted bool
	// Err is set when the whole batch failed before a decision was made.
	Err error
}

// NewPipeline builds a pipeline in front of leader's server set and starts
// its shard workers. It opens cfg.Shards leader sessions that share
// leader's peers, so the peers must tolerate concurrent Calls (every
// transport.Peer does).
//
// Sessions are numbered from 1 so the caller's own leader (session 0)
// keeps its ID namespace to itself.
func NewPipeline[Fd field.Field[E], E any](leader *Leader[Fd, E], cfg PipelineConfig) (*Pipeline[Fd, E], error) {
	cfg = cfg.withDefaults()
	if cfg.Shards < 1 || cfg.Shards > 0xFF {
		return nil, fmt.Errorf("core: pipeline needs 1–255 shards, got %d", cfg.Shards)
	}
	if cfg.MaxBatch < 1 {
		return nil, fmt.Errorf("core: pipeline MaxBatch must be positive, got %d", cfg.MaxBatch)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.New()
	}
	p := &Pipeline[Fd, E]{
		cfg:      cfg,
		queue:    make(chan pipeJob, cfg.QueueDepth),
		stopping: make(chan struct{}),
		shards:   make([]ShardStats, cfg.Shards),
		m:        newPipeMetrics(reg),
	}
	p.quiet = sync.NewCond(&p.mu)
	reg.GaugeFunc("prio_pipeline_queue_depth",
		"submissions waiting in the pipeline queue",
		func() float64 { return float64(len(p.queue)) })
	reg.GaugeFunc("prio_pipeline_queue_capacity",
		"pipeline queue capacity",
		func() float64 { return float64(cap(p.queue)) })
	if sys := leader.pro.snipSys(); sys != nil {
		reg.CounterFunc("prio_snip_evcache_hits_total",
			"challenge-keyed evaluator cache hits",
			func() uint64 { h, _ := sys.EvCacheStats(); return h })
		reg.CounterFunc("prio_snip_evcache_misses_total",
			"challenge-keyed evaluator cache misses (Lagrange precomputation rebuilt)",
			func() uint64 { _, m := sys.EvCacheStats(); return m })
	}
	for i := 0; i < cfg.Shards; i++ {
		sess, err := NewLeaderSession(leader.Server, leader.peers, i+1)
		if err != nil {
			return nil, err
		}
		sess.m = p.m
		p.sessions = append(p.sessions, sess)
	}
	p.wg.Add(cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		go p.shardLoop(i)
	}
	return p, nil
}

// Submit enqueues one submission, blocking when the queue is full
// (backpressure toward the ingest edge). It returns an error only when the
// pipeline is closed; verification outcomes are counted in Stats.
func (p *Pipeline[Fd, E]) Submit(sub *Submission) error {
	return p.submit(pipeJob{sub: sub})
}

// SubmitWait enqueues one submission and blocks for its individual accept
// decision — the client-facing path, where the submitter wants to know its
// contribution landed.
func (p *Pipeline[Fd, E]) SubmitWait(sub *Submission) (bool, error) {
	res := make(chan SubmitResult, 1)
	if err := p.submit(pipeJob{sub: sub, res: res}); err != nil {
		return false, err
	}
	r := <-res
	return r.Accepted, r.Err
}

// SubmitFunc enqueues one submission like Submit (blocking while the queue
// is full) and invokes fn with the individual decision once a shard reaches
// it. fn runs on the deciding shard's goroutine and must not block; the
// streaming ingest layer uses this to ack many in-flight submissions without
// parking a goroutine per submission.
func (p *Pipeline[Fd, E]) SubmitFunc(sub *Submission, fn func(SubmitResult)) error {
	return p.submit(pipeJob{sub: sub, fn: fn})
}

// TrySubmitFunc is the non-blocking SubmitFunc: when the queue has room the
// submission is enqueued and fn will see its decision; when the queue is
// full the submission is refused — counted in Stats().Refused, fn never
// called — and TrySubmitFunc returns false. Intake edges that must not
// stall their reader (a streaming connection, an RPC handler) use this and
// decide what a refusal means: buffer and retry, or shed toward the client.
func (p *Pipeline[Fd, E]) TrySubmitFunc(sub *Submission, fn func(SubmitResult)) (bool, error) {
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return false, errors.New("core: pipeline is closed")
	}
	p.mu.Lock()
	p.pending++
	p.mu.Unlock()
	job := pipeJob{sub: sub, fn: fn}
	if telemetry.Enabled {
		job.enq = time.Now()
	}
	sub.Trace.Stage("pipeline.queue")
	select {
	case p.queue <- job:
		return true, nil
	default:
		atomic.AddUint64(&p.refused, 1)
		p.m.refused.Inc()
		p.settle(1)
		return false, nil
	}
}

// submit guards the queue against closure.
func (p *Pipeline[Fd, E]) submit(job pipeJob) error {
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return errors.New("core: pipeline is closed")
	}
	p.mu.Lock()
	p.pending++
	p.mu.Unlock()
	if telemetry.Enabled {
		job.enq = time.Now()
	}
	job.sub.Trace.Stage("pipeline.queue")
	p.queue <- job
	return nil
}

// settle retires n decided submissions, waking Drain when the pipeline goes
// quiet.
func (p *Pipeline[Fd, E]) settle(n int) {
	p.mu.Lock()
	p.pending -= int64(n)
	if p.pending == 0 {
		p.quiet.Broadcast()
	}
	p.mu.Unlock()
}

// shardLoop is one worker: block for a job, opportunistically drain more up
// to MaxBatch, verify, record, repeat. The drain is what makes batching
// adaptive: an idle pipeline verifies singletons immediately, a saturated
// one fills every round.
func (p *Pipeline[Fd, E]) shardLoop(i int) {
	defer p.wg.Done()
	sess := p.sessions[i]
	st := &p.shards[i]
	jobs := make([]pipeJob, 0, p.cfg.MaxBatch)
	subs := make([]*Submission, 0, p.cfg.MaxBatch)
	for {
		job, ok := <-p.queue
		if !ok {
			return
		}
		jobs = append(jobs[:0], job)
	drain:
		for len(jobs) < p.cfg.MaxBatch {
			select {
			case job, ok := <-p.queue:
				if !ok {
					break drain
				}
				jobs = append(jobs, job)
			default:
				break drain
			}
		}

		subs = subs[:0]
		for _, j := range jobs {
			subs = append(subs, j.sub)
			j.sub.Trace.Stage("verify")
		}
		if telemetry.Enabled {
			now := time.Now()
			for _, j := range jobs {
				if !j.enq.IsZero() {
					p.m.queueWait.Observe(now.Sub(j.enq))
				}
			}
			p.m.batchSize.Observe(uint64(len(jobs)))
		}
		t0 := p.m.start()
		accepts, err := sess.ProcessBatch(subs)
		p.m.batchDur.Since(t0)

		// Batch-level failure: re-run the whole batch in place, up to
		// cfg.Retries times with doubling backoff. Each attempt is a fresh
		// ProcessBatch — new batch ID, prior attempt's server state already
		// released by the leader's abort path — so under a cluster roster
		// this is the failover re-run: the interrupted round is driven
		// again once the surviving peers answer, instead of discarding the
		// submissions. Retrying in-shard (not re-queueing) cannot deadlock
		// on a full queue and preserves completion-callback ordering.
		for attempt := 1; err != nil && attempt <= p.cfg.Retries; attempt++ {
			atomic.AddUint64(&st.FailedOver, 1)
			atomic.AddUint64(&st.Retried, uint64(len(jobs)))
			p.m.reruns.Inc()
			p.m.retried.Add(uint64(len(jobs)))
			if !p.sleepRetry(p.cfg.RetryBackoff << (attempt - 1)) {
				break // closing: give up on further attempts
			}
			t0 = p.m.start()
			accepts, err = sess.ProcessBatch(subs)
			p.m.batchDur.Since(t0)
		}

		// Counters are written with atomics so Stats can snapshot them
		// while the shard runs; one add per outcome per batch keeps the
		// accounting off the per-submission path.
		atomic.AddUint64(&st.Batches, 1)
		p.m.batches.Inc()
		if err != nil {
			atomic.AddUint64(&st.Failed, uint64(len(jobs)))
			p.m.failed.Add(uint64(len(jobs)))
			p.recordErr(err)
			for _, j := range jobs {
				j.sub.Trace.Finish("failed")
				j.finish(SubmitResult{Err: err})
			}
			p.settle(len(jobs))
			continue
		}
		atomic.AddUint64(&st.Processed, uint64(len(jobs)))
		var nAccept uint64
		for k, j := range jobs {
			if accepts[k] {
				nAccept++
				j.sub.Trace.Finish("accepted")
			} else {
				j.sub.Trace.Finish("rejected")
			}
			j.finish(SubmitResult{Accepted: accepts[k]})
		}
		atomic.AddUint64(&st.Accepted, nAccept)
		atomic.AddUint64(&st.Rejected, uint64(len(jobs))-nAccept)
		p.m.accepted.Add(nAccept)
		p.m.rejected.Add(uint64(len(jobs)) - nAccept)
		p.settle(len(jobs))
	}
}

// sleepRetry pauses for a retry backoff, returning false when the pipeline
// is closing and the retry should be abandoned.
func (p *Pipeline[Fd, E]) sleepRetry(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.stopping:
		return false
	}
}

// recordErr keeps the first batch-level failure for Close to return.
func (p *Pipeline[Fd, E]) recordErr(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// Drain blocks until every submission accepted so far has been decided. The
// pipeline stays open; use it to quiesce before reading an aggregate
// mid-run.
func (p *Pipeline[Fd, E]) Drain() {
	p.mu.Lock()
	for p.pending > 0 {
		p.quiet.Wait()
	}
	p.mu.Unlock()
}

// Quiesce pauses intake, waits until every in-flight submission has been
// decided, runs fn, then resumes intake. It is the boundary primitive the
// window service uses to close a collection window: with no batch in flight,
// advancing the window function and sealing the closed window cannot race a
// commit, so every server files every submission under the same window.
// Unlike a bare Drain, Quiesce blocks new Submits for the duration, so it
// completes even under sustained load.
func (p *Pipeline[Fd, E]) Quiesce(fn func()) {
	p.closeMu.Lock()
	defer p.closeMu.Unlock()
	p.Drain()
	fn()
}

// Close stops intake, waits for the shards to finish every queued
// submission, and returns the first batch-level error (nil when every batch
// completed its rounds — individual rejections are not errors).
func (p *Pipeline[Fd, E]) Close() error {
	p.closeMu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
		close(p.stopping)
	}
	p.closeMu.Unlock()
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Stats merges the per-shard counters. It is safe to call while the
// pipeline runs; the snapshot is advisory until the pipeline is drained.
func (p *Pipeline[Fd, E]) Stats() ShardStats {
	var out ShardStats
	for i := range p.shards {
		out.merge(p.loadShard(i))
	}
	out.Refused = atomic.LoadUint64(&p.refused)
	return out
}

// ShardStatsAt returns one shard's counters (benchmark introspection).
func (p *Pipeline[Fd, E]) ShardStatsAt(i int) ShardStats { return p.loadShard(i) }

// loadShard reads a shard's counters with atomic loads, since its worker
// may still be writing them.
func (p *Pipeline[Fd, E]) loadShard(i int) ShardStats {
	s := &p.shards[i]
	return ShardStats{
		Batches:    atomic.LoadUint64(&s.Batches),
		Processed:  atomic.LoadUint64(&s.Processed),
		Accepted:   atomic.LoadUint64(&s.Accepted),
		Rejected:   atomic.LoadUint64(&s.Rejected),
		Failed:     atomic.LoadUint64(&s.Failed),
		Retried:    atomic.LoadUint64(&s.Retried),
		FailedOver: atomic.LoadUint64(&s.FailedOver),
	}
}

// Shards returns the configured shard count.
func (p *Pipeline[Fd, E]) Shards() int { return p.cfg.Shards }

// Aggregate quiesces the pipeline and merges the per-shard results into
// the final aggregate: it pauses intake (Submit blocks for the duration),
// waits for every in-flight submission to be decided, then fetches and
// sums the servers' accumulators and cross-checks the servers' accepted
// count against the shards' own tallies — a cheap end-to-end consistency
// check that every accepted submission landed exactly once. Pausing intake
// is what makes the snapshot consistent: no batch can finish on one server
// before the accumulator fetch and on another after it.
func (p *Pipeline[Fd, E]) Aggregate() ([]E, uint64, error) {
	// Taking the write side of closeMu blocks new Submits and waits out
	// any sender mid-enqueue; the shard workers (which never touch
	// closeMu) then drain the queue to zero.
	p.closeMu.Lock()
	defer p.closeMu.Unlock()
	p.Drain()
	agg, n, err := p.sessions[0].Aggregate()
	if err != nil {
		return nil, 0, err
	}
	if want := p.Stats().Accepted; n != want {
		return nil, 0, fmt.Errorf("core: servers accumulated %d submissions, shards accepted %d", n, want)
	}
	return agg, n, nil
}
