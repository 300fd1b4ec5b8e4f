package telemetry

import (
	"testing"
	"time"
)

func TestHistSnapshotDelta(t *testing.T) {
	h := NewHistogram()
	for _, v := range []uint64{1, 5, 100} {
		h.Observe(v)
	}
	base := h.Snapshot()
	for _, v := range []uint64{7, 7, 2000} {
		h.Observe(v)
	}
	d := h.Snapshot().Delta(base)
	if d.Count != 3 || d.Sum != 7+7+2000 {
		t.Fatalf("delta count=%d sum=%d, want 3, 2014", d.Count, d.Sum)
	}
	if q := d.Quantile(0.5); q < 7 || q > 8 {
		t.Fatalf("delta p50 = %d, want ~7", q)
	}
	// Delta then Merge reconstructs the cumulative snapshot.
	full := h.Snapshot()
	re := base.Merge(d)
	if re.Count != full.Count || re.Sum != full.Sum {
		t.Fatalf("base+delta = %d/%d, cumulative = %d/%d", re.Count, re.Sum, full.Count, full.Sum)
	}
	// A reset (current not a superset of baseline) returns current whole.
	h2 := NewHistogram()
	h2.Observe(3)
	if d := h2.Snapshot().Delta(base); d.Count != 1 || d.Sum != 3 {
		t.Fatalf("reset delta = %d/%d, want 1/3", d.Count, d.Sum)
	}
	// Empty baseline is the identity.
	if d := full.Delta(HistSnapshot{}); d.Count != full.Count {
		t.Fatal("empty baseline delta should return current whole")
	}
}

func TestWindowViewAdvance(t *testing.T) {
	r := New()
	c := r.Counter("acc_total", "accepted")
	var fnVal uint64
	r.CounterFunc("fn_total", "func-backed", func() uint64 { return fnVal })
	d := r.Duration("lat_seconds", "latency")
	r.Gauge("depth", "queue depth").Set(9) // gauges are skipped

	c.Add(5)
	fnVal = 2
	d.Observe(10 * time.Millisecond)

	v := r.NewWindowView()
	w1 := v.Advance()
	if w1["acc_total"].Counter != 5 || w1["fn_total"].Counter != 2 {
		t.Fatalf("first window counters: %+v", w1)
	}
	if got := w1["lat_seconds"]; !got.IsHist || got.Hist.Count != 1 || got.Scale != 1e-9 {
		t.Fatalf("first window histogram: %+v", got)
	}
	if _, ok := w1["depth"]; ok {
		t.Fatal("gauge leaked into window deltas")
	}

	c.Add(3)
	d.Observe(20 * time.Millisecond)
	d.Observe(30 * time.Millisecond)
	w2 := v.Advance()
	if w2["acc_total"].Counter != 3 {
		t.Fatalf("second window counter = %d, want 3", w2["acc_total"].Counter)
	}
	if w2["fn_total"].Counter != 0 {
		t.Fatalf("idle func counter delta = %d, want 0", w2["fn_total"].Counter)
	}
	if h := w2["lat_seconds"].Hist; h.Count != 2 || h.Sum != uint64(50*time.Millisecond) {
		t.Fatalf("second window histogram = %d/%d", h.Count, h.Sum)
	}

	// An idle third window is all zeros.
	w3 := v.Advance()
	if w3["acc_total"].Counter != 0 || w3["lat_seconds"].Hist.Count != 0 {
		t.Fatalf("idle window not empty: %+v", w3)
	}
}
