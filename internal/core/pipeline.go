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
// Shape: Submit → bounded queue → K shard schedulers, each forming batches
// of up to MaxBatch and running them on background goroutines. Workers
// batch adaptively — under light load a submission rides alone for low
// latency; under heavy load batches fill to MaxBatch, amortizing the
// per-round broadcasts — and a shard keeps several full batches in
// verification when the rounds, not the CPUs, are the bottleneck, as far as
// the share bytes its batches pin on each server stay within a budget (see
// shardLoop). A batch gives up its place in the shard's depth at its
// decision and commits (MsgFinish) on its own goroutine while the next
// batches verify; its completions run once every server has applied the
// commit. Over TCP, transport.StreamPeer carries every in-flight batch's
// rounds on each server connection at once.
type Pipeline[Fd field.Field[E], E any] struct {
	cfg        PipelineConfig
	sessions   []*Leader[Fd, E]
	queue      chan pipeJob
	backlog    chan struct{} // a token when a submit leaves ≥ MaxBatch queued; wakes a shard with room
	stopping   chan struct{} // closed by Close: retry backoffs abort immediately
	maxDepth   int           // tests' clamp on a shard's batches in verification; 0 is none
	shareBytes int           // share bytes one submission pins on each server (Protocol.shareBytes)

	wg         sync.WaitGroup
	shards     []ShardStats
	refused    uint64       // submissions refused unqueued by TrySubmitFunc (queue full)
	inflight   atomic.Int64 // batches in verification, all shards
	committing atomic.Int64 // decided batches whose commit is under way, all shards
	pinned     atomic.Int64 // share bytes per server that out batches pin, all shards
	m          *pipeMetrics

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
	// Retries is how many times a shard retries each phase of a failed
	// batch before counting its submissions Failed (default 0: fail fast,
	// the single-process behavior). Retries happen on the batch's own
	// goroutine.
	//
	// A failed verification is re-run afresh, so it allocates a new batch ID
	// — the old attempt's server-side state was already released by the
	// abort path — and under a cluster roster the re-run lands on whatever
	// peers answer now, which is how an interrupted round survives a leader
	// failover. A failed commit is never re-verified, because some servers
	// may already have applied it: the identical commit, under the same
	// batch ID, is re-sent to the servers whose call failed, and a server
	// acknowledges a commit it already applied without applying it again. A
	// commit still failing after the retries fails its submissions.
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
	// Retried counts submission re-runs: a batch that failed its
	// verification and was re-driven contributes its size here per extra
	// attempt. Retried submissions are not double-counted in
	// Processed/Accepted/Rejected — only the attempt that reaches a decision
	// lands there.
	Retried uint64
	// FailedOver counts batch re-verification attempts (each under a fresh
	// batch ID, the old attempt's server-side state released by the abort
	// path). Commit re-sends are not re-runs; prio_verify_commit_retries_total
	// counts them.
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
	shareBytes := leader.pro.shareBytes()
	// The deepest a shard can go with full batches: rule (ii) and the share
	// budget of rule (iii) (shardLoop).
	depth := max(1, min(leader.pro.Cfg.ChallengeEvery/cfg.MaxBatch, shareBudget/(cfg.MaxBatch*shareBytes)))
	p := &Pipeline[Fd, E]{
		cfg:        cfg,
		queue:      make(chan pipeJob, cfg.QueueDepth),
		backlog:    make(chan struct{}, 1),
		stopping:   make(chan struct{}),
		shareBytes: shareBytes,
		shards:     make([]ShardStats, cfg.Shards),
		m:          newPipeMetrics(reg),
	}
	p.quiet = sync.NewCond(&p.mu)
	reg.GaugeFunc("prio_pipeline_queue_depth",
		"submissions waiting in the pipeline queue",
		func() float64 { return float64(len(p.queue)) })
	reg.GaugeFunc("prio_pipeline_queue_capacity",
		"pipeline queue capacity",
		func() float64 { return float64(cap(p.queue)) })
	reg.GaugeFunc("prio_pipeline_inflight_batches",
		"batches in their verification rounds, summed over shards",
		func() float64 { return float64(p.inflight.Load()) })
	reg.GaugeFunc("prio_pipeline_committing_batches",
		"decided batches whose commit (MsgFinish) is under way, summed over shards",
		func() float64 { return float64(p.committing.Load()) })
	reg.GaugeFunc("prio_pipeline_share_bytes",
		"share bytes per server pinned by batches verifying or committing, summed over shards",
		func() float64 { return float64(p.pinned.Load()) })
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
		sess.depthCap = depth
		p.sessions = append(p.sessions, sess)
	}
	reg.GaugeFunc("prio_pipeline_depth_target",
		"batches the shards' governors would keep in verification (overlapDepth), summed over shards",
		func() float64 {
			n := 0
			for _, sess := range p.sessions {
				n += sess.overlapDepth()
			}
			return float64(n)
		})
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
// it. fn runs on the deciding batch's goroutine and must not block; the
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
		p.signalBacklog()
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
	p.signalBacklog()
	return nil
}

// signalBacklog leaves a token for shardLoop when a full batch is waiting.
// One token suffices: the shard that takes it re-signals after its drain if
// another full batch is still queued.
func (p *Pipeline[Fd, E]) signalBacklog() {
	if len(p.queue) >= p.cfg.MaxBatch {
		select {
		case p.backlog <- struct{}{}:
		default:
		}
	}
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

// shareBudget bounds the share bytes one shard's out batches, verifying or
// committing, pin on each server, each submission charged its share's
// pooled size class (Protocol.shareBytes). It is what a fixed ceiling of
// four verifying batches admitted for bits1024 at MaxBatch 16 (4 × 16 ×
// 64 KiB), so no scheme's worst case grows, while a sum8 shard (8 KiB a
// batch) is left to ChallengeEvery and the governor (overlapDepth).
const shareBudget = 4 << 20

// shardLoop is one shard's scheduler. With no batch out it blocks for a job
// and drains whatever else is queued up to MaxBatch: the adaptive batching
// that verifies singletons at once on an idle pipeline and fills every round
// on a saturated one. Each batch runs on its own goroutine (runBatch) and
// verifies, then commits. While batches are out the shard dispatches
// another only when all three hold:
//
//   - (i) a full MaxBatch batch is waiting, so an under-loaded pipeline
//     forms exactly the batches a serial loop would;
//   - (ii) the session's verifying submissions plus that batch stay within
//     ChallengeEvery, so a rotation rarely has to wait for a batch still
//     verifying under the challenge it evicts (Leader.ensureChallenge).
//     The depth check of (iii) enforces it: NewPipeline caps the session's
//     depth (depthCap) at ChallengeEvery/MaxBatch full batches, and at one
//     when ChallengeEvery < MaxBatch, where a lone verifying batch sees no
//     rotation;
//   - (iii) the shard has fewer batches in verification than its session's
//     overlapDepth, so depth is spent only where the rounds wait on the
//     wire while the CPUs have room, and the share bytes its out batches
//     pin on each server, plus a full batch's, stay within shareBudget.
//     depthCap already holds the verifying batches inside the budget; the
//     byte check is what bounds the committing ones.
//
// A batch leaves the verifying count at its decision: its commit names no
// challenge and needs no slot. It stays out, and its shares stay charged to
// the budget, until its completions have run, so a shard whose batches are
// all committing still waits for a full batch rather than forming a
// partial one early.
//
// Otherwise the loop waits for a batch to be decided or finish, or for a
// submit to leave a full batch queued. A shard returns once the queue is
// closed and drained and its last batch is done, so Close's wg.Wait covers
// every background batch.
func (p *Pipeline[Fd, E]) shardLoop(i int) {
	defer p.wg.Done()
	sess := p.sessions[i]
	// Each batch reports on events twice, in order: its size at its
	// decision, then its size negated once its completions have run. The
	// buffer holds both reports of the deepest verification the rules admit;
	// a send beyond it (commits outnumbering that depth) waits for the loop,
	// which reads events whenever a batch is out.
	events := make(chan int, 2*sess.depthCap)
	batchBytes := p.cfg.MaxBatch * p.shareBytes
	// Out batches, those in verification, and the share bytes the out
	// batches pin.
	batches, verifying, pinned := 0, 0, 0
	launch := func(jobs []pipeJob) {
		n, charge := len(jobs), len(jobs)*p.shareBytes
		batches++
		verifying++
		pinned += charge
		p.inflight.Add(1)
		p.pinned.Add(int64(charge))
		go func() {
			p.runBatch(i, jobs, func() {
				p.inflight.Add(-1)
				events <- n
			})
			p.pinned.Add(-int64(charge))
			events <- -n
		}()
	}
	for {
		if batches == 0 {
			job, ok := <-p.queue
			if !ok {
				return
			}
			launch(p.fill(append(make([]pipeJob, 0, p.cfg.MaxBatch), job)))
			continue
		}
		depth := sess.overlapDepth()
		if p.maxDepth > 0 {
			depth = min(depth, p.maxDepth)
		}
		room := verifying < depth && pinned+batchBytes <= shareBudget
		if room && len(p.queue) >= p.cfg.MaxBatch {
			// An idle shard may race this drain for part of the batch; what
			// is left still goes out now.
			if jobs := p.fill(make([]pipeJob, 0, p.cfg.MaxBatch)); len(jobs) > 0 {
				launch(jobs)
				p.signalBacklog()
				continue
			}
		}
		var backlog chan struct{}
		if room {
			backlog = p.backlog
		}
		select {
		case n := <-events:
			if n > 0 {
				verifying--
			} else {
				batches--
				pinned += n * p.shareBytes
			}
		case <-backlog:
		}
	}
}

// fill appends queued jobs to jobs, without blocking, up to MaxBatch.
func (p *Pipeline[Fd, E]) fill(jobs []pipeJob) []pipeJob {
	for len(jobs) < p.cfg.MaxBatch {
		select {
		case job, ok := <-p.queue:
			if !ok {
				return jobs
			}
			jobs = append(jobs, job)
		default:
			return jobs
		}
	}
	return jobs
}

// runBatch drives one batch of shard i through its two phases, retrying
// each on failure, records the outcome and delivers every completion — all
// on the batch's own goroutine. It calls decided when verification ends
// (with a decision or for good), which frees the batch's place in the
// shard's depth while its commit is still on the wire; the completions run
// only after every server has applied the commit, so an accepted ack means
// the submission is in every accumulator. Completions of a shard's
// concurrent batches may interleave in any order; ingest matches acks by ID.
func (p *Pipeline[Fd, E]) runBatch(i int, jobs []pipeJob, decided func()) {
	sess, st := p.sessions[i], &p.shards[i]
	subs := make([]*Submission, len(jobs))
	for k, j := range jobs {
		subs[k] = j.sub
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

	// Verification, re-run in place on a batch-level failure. Each attempt
	// is a fresh verify — new batch ID, prior attempt's server state already
	// released by the leader's abort path — so under a cluster roster this is
	// the failover re-run: the interrupted round is driven again once the
	// surviving peers answer, instead of discarding the submissions. Retrying
	// on the batch's goroutine (not re-queueing) cannot deadlock on a full
	// queue, and the batch keeps its place in the shard's depth meanwhile.
	var d *decision
	err := p.withRetries(func() error {
		t0 := p.m.start()
		var err error
		d, err = sess.verify(subs)
		p.m.batchDur.Since(t0)
		return err
	}, func() {
		atomic.AddUint64(&st.FailedOver, 1)
		atomic.AddUint64(&st.Retried, uint64(len(jobs)))
		p.m.reruns.Inc()
		p.m.retried.Add(uint64(len(jobs)))
	})
	decided()

	// The commit: re-sent as is, never re-verified (see Retries).
	if err == nil && d.finish != nil {
		for _, j := range jobs {
			j.sub.Trace.Stage("commit")
		}
		p.committing.Add(1)
		err = p.withRetries(func() error { return sess.commit(d) }, p.m.commitRetries.Inc)
		p.committing.Add(-1)
	}

	// Counters are written with atomics so Stats can snapshot them while
	// batches run; one add per outcome per batch keeps the accounting off
	// the per-submission path.
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
		return
	}
	// Outcomes are counted before any submitter wakes, so a Stats read after
	// an ack already includes it.
	atomic.AddUint64(&st.Processed, uint64(len(jobs)))
	var nAccept uint64
	for k := range jobs {
		if d.accepts[k] {
			nAccept++
		}
	}
	atomic.AddUint64(&st.Accepted, nAccept)
	atomic.AddUint64(&st.Rejected, uint64(len(jobs))-nAccept)
	p.m.accepted.Add(nAccept)
	p.m.rejected.Add(uint64(len(jobs)) - nAccept)
	for k, j := range jobs {
		if d.accepts[k] {
			j.sub.Trace.Finish("accepted")
		} else {
			j.sub.Trace.Finish("rejected")
		}
		j.finish(SubmitResult{Accepted: d.accepts[k]})
	}
	p.settle(len(jobs))
}

// withRetries runs op, then re-runs it while it fails, up to cfg.Retries
// more times with doubling backoff; onRetry runs before each re-run. It
// gives up early once the pipeline is closing, and returns op's last error.
func (p *Pipeline[Fd, E]) withRetries(op func() error, onRetry func()) error {
	err := op()
	for attempt := 1; err != nil && attempt <= p.cfg.Retries; attempt++ {
		onRetry()
		if !p.sleepRetry(p.cfg.RetryBackoff << (attempt - 1)) {
			break
		}
		err = op()
	}
	return err
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

// MaxSubmission is the wire size (Submission.Marshal) of the largest
// submission the servers can decode: one bundle per server, each at most an
// explicit share of the scheme, sealed when the deployment seals. Anything
// longer is malformed, so the ingest edge refuses it at its length prefix.
func (p *Pipeline[Fd, E]) MaxSubmission() int { return p.sessions[0].pro.maxSubmission() }

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
