package core

import (
	"testing"

	"prio/internal/telemetry"
)

// TestPipelineMetricsAddUp runs honest and dishonest submissions through a
// real deployment and checks the verification-stage ledger balances: the
// per-outcome counters sum to the submitted count and match ShardStats, and
// every round landed in the stage histograms.
func TestPipelineMetricsAddUp(t *testing.T) {
	_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, true)
	reg := telemetry.New()
	pl, err := NewPipeline(cl.Leader, PipelineConfig{Shards: 2, MaxBatch: 4, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	const honest, cheats = 30, 6
	done := make(chan SubmitResult, honest+cheats)
	for i := 0; i < honest; i++ {
		enc, err := scheme.Encode(uint64(i % 100))
		if err != nil {
			t.Fatal(err)
		}
		sub, err := client.BuildSubmission(enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.SubmitFunc(sub, func(r SubmitResult) { done <- r }); err != nil {
			t.Fatal(err)
		}
	}
	enc0, err := scheme.Encode(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cheats; i++ {
		// An out-of-range encoding: the SNIP check must reject it.
		bad := make([]uint64, len(enc0))
		for j := range bad {
			bad[j] = 7
		}
		sub, err := client.BuildSubmission(bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.SubmitFunc(sub, func(r SubmitResult) { done <- r }); err != nil {
			t.Fatal(err)
		}
	}
	var accepted, rejected int
	for i := 0; i < honest+cheats; i++ {
		if r := <-done; r.Accepted {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted != honest || rejected != cheats {
		t.Fatalf("accepted=%d rejected=%d, want %d/%d", accepted, rejected, honest, cheats)
	}

	snap := reg.Snapshot()
	count := func(name string) uint64 {
		v, ok := snap[name].(uint64)
		if !ok {
			t.Fatalf("missing counter %s", name)
		}
		return v
	}
	hist := func(name string) uint64 {
		m, ok := snap[name].(map[string]any)
		if !ok {
			t.Fatalf("missing histogram %s", name)
		}
		return m["count"].(uint64)
	}
	sum := count(`prio_pipeline_submissions_total{outcome="accepted"}`) +
		count(`prio_pipeline_submissions_total{outcome="rejected"}`) +
		count(`prio_pipeline_submissions_total{outcome="failed"}`)
	if sum != honest+cheats {
		t.Fatalf("pipeline outcomes sum to %d, want %d", sum, honest+cheats)
	}
	st := pl.Stats()
	if count(`prio_pipeline_submissions_total{outcome="accepted"}`) != st.Accepted ||
		count(`prio_pipeline_submissions_total{outcome="rejected"}`) != st.Rejected ||
		count("prio_verify_batches_total") != st.Batches {
		t.Fatalf("registry counters disagree with ShardStats %+v", st)
	}

	batches := count("prio_verify_batches_total")
	for _, h := range []string{
		"prio_verify_batch_seconds",
		"prio_verify_round1_seconds",
		"prio_verify_round2_seconds",
		"prio_verify_finish_seconds",
		"prio_pipeline_batch_size",
	} {
		if got := hist(h); got != batches {
			t.Errorf("histogram %s count = %d, want one per batch (%d)", h, got, batches)
		}
	}
	if got := hist("prio_pipeline_queue_wait_seconds"); got != honest+cheats {
		t.Errorf("queue-wait count = %d, want one per submission (%d)", got, honest+cheats)
	}
	if got, want := snap["prio_pipeline_max_held"], float64(pl.MaxHeld()); got != want || want <= float64(cap(pl.queue)) {
		t.Errorf("prio_pipeline_max_held = %v, want MaxHeld's %v, above the queue's %d", got, want, cap(pl.queue))
	}

}

// TestRevealProbeMetrics drives one mixed batch straight through
// ProcessBatch on a metered leader: the combined RLC check must fail and be
// followed by exactly one reveal probe, which the fallback counter records,
// deterministically, unlike pipeline batching.
func TestRevealProbeMetrics(t *testing.T) {
	_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, true)
	ld, calls := countedLeader(t, cl)
	reg := telemetry.New()
	ld.m = newPipeMetrics(reg)

	subs := make([]*Submission, 0, 8)
	for i := 0; i < 8; i++ {
		enc, err := scheme.Encode(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 3 || i == 6 {
			for j := range enc {
				enc[j] = 7 // out of range: fails the SNIP check
			}
		}
		sub, err := client.BuildSubmission(enc)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	accepts, err := ld.ProcessBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range accepts {
		if want := i != 3 && i != 6; ok != want {
			t.Errorf("submission %d: accepted=%v, want %v", i, ok, want)
		}
	}
	// Two invalid members in a batch of eight: the combined probe and one
	// reveal, to every server.
	for j, c := range calls {
		if got := c[MsgRound2Batch].Load(); got != 2 {
			t.Errorf("server %d answered %d Round2 probes, want 2", j, got)
		}
	}

	snap := reg.Snapshot()
	if got := snap["prio_verify_batch_fallback_total"].(uint64); got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}
	if got := snap["prio_verify_round2_seconds"].(map[string]any)["count"].(uint64); got != 1 {
		t.Errorf("round2 observations = %d, want 1", got)
	}
}
