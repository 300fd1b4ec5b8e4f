package ingest

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"prio/internal/core"
	"prio/internal/telemetry"
)

// TestLedgerClosesUnderEveryBuildTag drives every outcome — accepted,
// rejected, shed, failed — through a real stream and checks the ledger
// closes three ways: received equals the sum of outcomes, the client's view
// equals the server's, and the exported series equal Stats.
func TestLedgerClosesUnderEveryBuildTag(t *testing.T) {
	reg := telemetry.New()
	sink := &fakeSink{decide: func(sub *core.Submission) core.SubmitResult {
		switch sub.Bundles[0][0] % 3 {
		case 0:
			return core.SubmitResult{Accepted: true}
		case 1:
			return core.SubmitResult{}
		default:
			return core.SubmitResult{Err: errors.New("injected: batch lost")}
		}
	}}
	// The pump's blocking path stays wedged until release closes, as a
	// saturated pipeline's Submit would.
	release := make(chan struct{})
	wedged := &wedgedSink{fakeSink: sink, release: release}
	ing, addr, stop := serveIngest(t, wedged, Config{Credits: 16, QueueDepth: 2, Registry: reg})
	defer stop()

	sub, err := Dial(addr, SubmitterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	const total = 120
	submit := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := sub.Submit(testSub(byte(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(0, total/3)
	// The middle third finds the sink full: one submission wedges the pump,
	// two fill the intake queue, and the rest are shed.
	atomic.StoreInt32(&sink.full, 1)
	submit(total/3, 2*total/3)
	for deadline := time.Now().Add(2 * time.Second); sub.Stats().Shed == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	atomic.StoreInt32(&sink.full, 0)
	close(release)
	submit(2*total/3, total)
	if err := sub.Wait(); err != nil {
		t.Fatal(err)
	}

	st := ing.Stats()
	if st.Received != total || st.Acked() != st.Received || st.Streams != 1 {
		t.Fatalf("server ledger open: %+v, want %d received and decided", st, total)
	}
	if st.Accepted == 0 || st.Rejected == 0 || st.Shed == 0 || st.Failed == 0 {
		t.Fatalf("workload should produce every outcome: %+v", st)
	}
	if cst := sub.Stats(); cst.Accepted != st.Accepted || cst.Rejected != st.Rejected ||
		cst.Shed != st.Shed || cst.Failed != st.Failed {
		t.Fatalf("client stats %+v disagree with server %+v", cst, st)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"prio_ingest_streams_total":  st.Streams,
		"prio_ingest_received_total": st.Received,
		"prio_ingest_accepted_total": st.Accepted,
		"prio_ingest_rejected_total": st.Rejected,
		"prio_ingest_shed_total":     st.Shed,
		"prio_ingest_failed_total":   st.Failed,
	} {
		if got := snap[name]; got != want {
			t.Errorf("registry %s = %v, want %d", name, got, want)
		}
	}
}

// wedgedSink blocks the pump's SubmitFunc until release closes; the
// embedded fakeSink's TrySubmitFunc still takes the unblocked path.
type wedgedSink struct {
	*fakeSink
	release chan struct{}
}

func (w *wedgedSink) SubmitFunc(sub *core.Submission, fn func(core.SubmitResult)) error {
	<-w.release
	return w.fakeSink.SubmitFunc(sub, fn)
}

// TestMetricsAddUp drives a mixed workload — accepts, rejects, sheds —
// through a real stream and checks the telemetry ledger balances: every
// decoded submission is accounted for by exactly one outcome counter, the
// Stats view agrees with the registry, the latency histograms saw every
// decision, and the Prometheus exposition carries the same numbers an
// operator's scrape would alert on.
func TestMetricsAddUp(t *testing.T) {
	reg := telemetry.New()
	tracer := telemetry.NewTracer(2, 64)
	sink := &fakeSink{decide: func(sub *core.Submission) core.SubmitResult {
		return core.SubmitResult{Accepted: sub.Bundles[0][0]%4 != 0}
	}}
	ing, addr, stop := serveIngest(t, sink, Config{
		Credits: 8, QueueDepth: 16, Registry: reg, Tracer: tracer,
	})
	defer stop()

	sub, err := Dial(addr, SubmitterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const total = 200
	for i := 0; i < total; i++ {
		if i == total/2 {
			// Saturate the fast path mid-run so the intake queue (and its
			// wait histogram) sees traffic too.
			atomic.StoreInt32(&sink.full, 1)
		}
		if i == total*3/4 {
			atomic.StoreInt32(&sink.full, 0)
		}
		if _, err := sub.Submit(testSub(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sub.Wait(); err != nil {
		t.Fatal(err)
	}

	st := ing.Stats()
	if st.Received != total {
		t.Fatalf("received %d, want %d", st.Received, total)
	}
	if got := st.Accepted + st.Rejected + st.Shed + st.Failed; got != st.Received {
		t.Fatalf("outcomes %d (accepted=%d rejected=%d shed=%d failed=%d) != received %d",
			got, st.Accepted, st.Rejected, st.Shed, st.Failed, st.Received)
	}
	if st.Accepted == 0 || st.Rejected == 0 {
		t.Fatalf("workload should both accept and reject: %+v", st)
	}
	if st.Streams != 1 {
		t.Fatalf("streams = %d, want 1", st.Streams)
	}

	// The client's view must agree with the server's ledger.
	cst := sub.Stats()
	if cst.Accepted != st.Accepted || cst.Rejected != st.Rejected ||
		cst.Shed != st.Shed || cst.Failed != st.Failed {
		t.Fatalf("client stats %+v disagree with server %+v", cst, st)
	}

	// Stats is a view over the registry: the exported series must carry the
	// same values.
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"prio_ingest_received_total": st.Received,
		"prio_ingest_accepted_total": st.Accepted,
		"prio_ingest_rejected_total": st.Rejected,
		"prio_ingest_shed_total":     st.Shed,
		"prio_ingest_failed_total":   st.Failed,
		"prio_ingest_streams_total":  st.Streams,
	} {
		if got := snap[name]; got != want {
			t.Errorf("registry %s = %v, want %d", name, got, want)
		}
	}
	// The one open stream keeps its static window.
	if got := snap["prio_ingest_credit_windows"]; got != float64(8) {
		t.Errorf("registry prio_ingest_credit_windows = %v, want the open stream's 8", got)
	}

	// Every decision landed in the decision histogram; every decoded frame
	// in the frame histogram.
	dec := snap["prio_ingest_decision_seconds"].(map[string]any)
	if got := dec["count"].(uint64); got != total {
		t.Errorf("decision histogram count = %d, want %d", got, total)
	}
	frame := snap["prio_ingest_frame_seconds"].(map[string]any)
	if got := frame["count"].(uint64); got != total {
		t.Errorf("frame histogram count = %d, want %d", got, total)
	}
	if st.Shed > 0 {
		wait := snap["prio_ingest_intake_wait_seconds"].(map[string]any)
		if wait["count"].(uint64) == 0 {
			t.Errorf("saturated run should have exercised the intake queue")
		}
	}

	// The Prometheus exposition agrees with the snapshot.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"prio_ingest_received_total 200",
		"prio_ingest_decision_seconds_count 200",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The tracer sampled 1-in-2 lifecycles; its ring holds finished traces
	// with at least the recv stage and a real outcome.
	traces := tracer.Snapshot()
	if len(traces) == 0 {
		t.Fatal("tracer captured nothing")
	}
	for _, tr := range traces {
		if tr.Outcome == "" || len(tr.Spans) == 0 {
			t.Errorf("trace %d: outcome=%q spans=%d", tr.ID, tr.Outcome, len(tr.Spans))
		}
		if tr.Spans[0].Stage != "ingest.recv" {
			t.Errorf("trace %d: first span %q, want ingest.recv", tr.ID, tr.Spans[0].Stage)
		}
	}
}
