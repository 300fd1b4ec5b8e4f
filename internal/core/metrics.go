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
	batchDur  *telemetry.DurationHistogram // whole ProcessBatch
	round1    *telemetry.DurationHistogram // MsgRound1 broadcast round-trip
	round2    *telemetry.DurationHistogram // SNIP round 2: the combined probe plus any bisect probes
	finish    *telemetry.DurationHistogram // MsgFinish commit broadcast
	batchSize *telemetry.Histogram

	batches  *telemetry.Counter
	accepted *telemetry.Counter
	rejected *telemetry.Counter
	failed   *telemetry.Counter
	refused  *telemetry.Counter
	retried  *telemetry.Counter
	reruns   *telemetry.Counter

	bisectProbes *telemetry.Counter // extra Round2Batch probes beyond the first
	fallbacks    *telemetry.Counter // batches whose combined check failed
}

// newPipeMetrics registers the pipeline's metric families in reg.
func newPipeMetrics(reg *telemetry.Registry) *pipeMetrics {
	outcome := func(v string) telemetry.Label { return telemetry.Label{Key: "outcome", Value: v} }
	return &pipeMetrics{
		queueWait: reg.Duration("prio_pipeline_queue_wait_seconds",
			"time a submission spends in the pipeline queue before a shard picks it up"),
		batchDur: reg.Duration("prio_verify_batch_seconds",
			"wall time of one ProcessBatch (all verification rounds)"),
		round1: reg.Duration("prio_verify_round1_seconds",
			"MsgRound1 broadcast round-trip (bundle relay + local circuit pass)"),
		round2: reg.Duration("prio_verify_round2_seconds",
			"SNIP round-2 phase: combined probe plus any bisect probes"),
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
		bisectProbes: reg.Counter("prio_verify_bisect_probes_total",
			"extra Round2Batch probes issued by the bisecting fallback"),
		fallbacks: reg.Counter("prio_verify_batch_fallback_total",
			"batches whose combined RLC check failed, triggering bisection"),
	}
}

// start returns the wall clock for a stage timing, or the zero time when
// metrics are absent or compiled out (Since then records nothing).
func (m *pipeMetrics) start() time.Time {
	if m == nil || !telemetry.Enabled {
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

// countBisect records one batch's probe tally after its round-2 phase.
func (m *pipeMetrics) countBisect(probes int) {
	if m == nil || probes <= 1 {
		return
	}
	m.fallbacks.Inc()
	m.bisectProbes.Add(uint64(probes - 1))
}
