package core

import (
	"time"

	"prio/internal/telemetry"
)

// pipeMetrics is the verification pipeline's view into the telemetry
// registry: stage-duration histograms for every hop of the hot path and
// outcome counters matching ShardStats. One instance is shared by a
// Pipeline and all of its leader sessions; a nil *pipeMetrics (a Leader
// built outside a Pipeline) is a no-op everywhere.
type pipeMetrics struct {
	queueWait *telemetry.DurationHistogram // submit → shard pickup
	batchDur  *telemetry.DurationHistogram // one verification attempt, Round1 to the decision
	round1    *telemetry.DurationHistogram // MsgRound1 broadcast round-trip
	round2    *telemetry.DurationHistogram // SNIP round 2: the combined probe plus any reveal
	finish    *telemetry.DurationHistogram // MsgFinish commit broadcast
	batchSize *telemetry.Histogram

	batches  *telemetry.Counter
	accepted *telemetry.Counter
	rejected *telemetry.Counter
	failed   *telemetry.Counter
	refused  *telemetry.Counter
	retried  *telemetry.Counter
	reruns   *telemetry.Counter
	// commitRetries counts MsgFinish re-sends to servers that failed the commit.
	commitRetries *telemetry.Counter

	fallbacks *telemetry.Counter // batches whose combined check failed, each answered by one reveal

	// waitDepth and waitBudget count shardLoop passes that held a queued
	// full batch back, by the limit that held it.
	waitDepth  *telemetry.Counter
	waitBudget *telemetry.Counter
}

// newPipeMetrics registers the pipeline's metric families in reg.
func newPipeMetrics(reg *telemetry.Registry) *pipeMetrics {
	outcome := func(v string) telemetry.Label { return telemetry.Label{Key: "outcome", Value: v} }
	limit := func(v string) telemetry.Label { return telemetry.Label{Key: "limit", Value: v} }
	return &pipeMetrics{
		queueWait: reg.Duration("prio_pipeline_queue_wait_seconds",
			"time a submission spends in the pipeline queue before a shard picks it up"),
		batchDur: reg.Duration("prio_verify_batch_seconds",
			"wall time of one batch verification attempt (Round1 through the decision; the commit is prio_verify_finish_seconds)"),
		round1: reg.Duration("prio_verify_round1_seconds",
			"MsgRound1 broadcast round-trip (bundle relay + local Round1 pass)"),
		round2: reg.Duration("prio_verify_round2_seconds",
			"SNIP round-2 phase: combined probe plus any reveal"),
		finish: reg.Duration("prio_verify_finish_seconds",
			"MsgFinish commit broadcast (accept bitmap to accumulators)"),
		batchSize: reg.Histogram("prio_pipeline_batch_size",
			"submissions per verification round (adaptive batching fill)"),
		batches: reg.Counter("prio_verify_batches_total",
			"verification rounds driven"),
		accepted: reg.Counter("prio_pipeline_submissions_total",
			"submissions by decision", outcome("accepted")),
		rejected: reg.Counter("prio_pipeline_submissions_total",
			"submissions by decision", outcome("rejected")),
		failed: reg.Counter("prio_pipeline_submissions_total",
			"submissions by decision", outcome("failed")),
		refused: reg.Counter("prio_pipeline_submissions_total",
			"submissions by decision", outcome("refused")),
		retried: reg.Counter("prio_pipeline_retried_total",
			"submissions re-run after a batch-level failure (failover re-queue)"),
		reruns: reg.Counter("prio_verify_batch_reruns_total",
			"failed verification batches re-run under a fresh batch ID"),
		commitRetries: reg.Counter("prio_verify_commit_retries_total",
			"commit (MsgFinish) re-sends, each to the servers whose previous attempt failed"),
		fallbacks: reg.Counter("prio_verify_batch_fallback_total",
			"batches whose combined RLC check failed, triggering one per-submission reveal"),
		waitDepth: reg.Counter("prio_pipeline_dispatch_waits_total",
			"shard scheduler passes that held a queued full batch back, by the limit that held it", limit("depth")),
		waitBudget: reg.Counter("prio_pipeline_dispatch_waits_total",
			"shard scheduler passes that held a queued full batch back, by the limit that held it", limit("budget")),
	}
}

// start returns the wall clock for a stage timing, or the zero time when
// metrics are absent (Since then records nothing).
func (m *pipeMetrics) start() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

func (m *pipeMetrics) observeRound1(t0 time.Time) {
	if m == nil {
		return
	}
	m.round1.Since(t0)
}

func (m *pipeMetrics) observeRound2(t0 time.Time) {
	if m == nil {
		return
	}
	m.round2.Since(t0)
}

func (m *pipeMetrics) observeFinish(t0 time.Time) {
	if m == nil {
		return
	}
	m.finish.Since(t0)
}

// countFallback records one batch whose combined check failed.
func (m *pipeMetrics) countFallback() {
	if m == nil {
		return
	}
	m.fallbacks.Inc()
}
