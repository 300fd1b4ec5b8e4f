package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one counter from many goroutines and
// checks no increment is lost across the stripes.
func TestCounterConcurrent(t *testing.T) {
	c := NewCounter()
	const goroutines, per = 16, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), uint64(goroutines*per); got != want {
		t.Fatalf("counter lost updates: got %d, want %d", got, want)
	}
}

// TestCounterNil checks the nil no-op contract.
func TestCounterNil(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	var h *Histogram
	h.Observe(1)
	if s := h.Snapshot(); s.Count != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("nil histogram should be empty")
	}
	var d *DurationHistogram
	d.Observe(time.Second)
	d.Since(time.Now())
	var g *Gauge
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
}

func TestGauge(t *testing.T) {
	g := NewGauge()
	g.Set(3.5)
	g.Add(-1.25)
	if got := g.Value(); got != 2.25 {
		t.Fatalf("gauge = %v, want 2.25", got)
	}
}

// TestBucketRoundTrip checks the log-linear index/bound pair is
// consistent: every value lands in a bucket whose bounds contain it, and
// the relative width honors the error bound.
func TestBucketRoundTrip(t *testing.T) {
	check := func(v uint64) {
		t.Helper()
		i := bucketIndex(v)
		up := bucketUpper(i)
		if v > up {
			t.Fatalf("value %d above its bucket upper bound %d (bucket %d)", v, up, i)
		}
		if i > 0 {
			if prev := bucketUpper(i - 1); v <= prev {
				t.Fatalf("value %d at or below previous bucket bound %d (bucket %d)", v, prev, i)
			}
		}
		if v >= histSub {
			if rel := float64(up-v) / float64(v); rel > 1.0/histSub {
				t.Fatalf("value %d: relative error %f exceeds %f", v, rel, 1.0/histSub)
			}
		}
	}
	for v := uint64(0); v < 4096; v++ {
		check(v)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		check(rng.Uint64())
	}
	check(math.MaxUint64)
	if got := bucketIndex(math.MaxUint64); got != histBuckets-1 {
		t.Fatalf("MaxUint64 bucket = %d, want %d", got, histBuckets-1)
	}
	if got := bucketUpper(histBuckets - 1); got != math.MaxUint64 {
		t.Fatalf("last bucket upper = %d, want MaxUint64", got)
	}
}

// quantileExact is the sort-based reference the histogram replaces.
func quantileExact(vals []uint64, q float64) uint64 {
	s := append([]uint64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// TestQuantileAccuracy bounds the histogram's quantile error against the
// exact sort on random and adversarial distributions: estimates must
// never be low and at most 1/histSub high.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func(n int) []uint64{
		"uniform": func(n int) []uint64 {
			v := make([]uint64, n)
			for i := range v {
				v[i] = uint64(rng.Int63n(1e9))
			}
			return v
		},
		"lognormal": func(n int) []uint64 {
			v := make([]uint64, n)
			for i := range v {
				v[i] = uint64(math.Exp(rng.NormFloat64()*2 + 12))
			}
			return v
		},
		"constant": func(n int) []uint64 {
			v := make([]uint64, n)
			for i := range v {
				v[i] = 123457
			}
			return v
		},
		// Adversarial: values pinned to power-of-two bucket edges, where
		// off-by-one index math would show.
		"edges": func(n int) []uint64 {
			v := make([]uint64, n)
			for i := range v {
				e := uint(rng.Intn(40))
				v[i] = (1 << e) - uint64(rng.Intn(2))
			}
			return v
		},
		// Adversarial: bimodal with a 5-decade gap, probing interpolation
		// assumptions (there are none to exploit — buckets are counted).
		"bimodal": func(n int) []uint64 {
			v := make([]uint64, n)
			for i := range v {
				if i%10 == 0 {
					v[i] = uint64(1e10 + rng.Int63n(1e9))
				} else {
					v[i] = uint64(100 + rng.Int63n(100))
				}
			}
			return v
		},
	}
	for name, gen := range dists {
		vals := gen(20000)
		h := NewHistogram()
		for _, v := range vals {
			h.Observe(v)
		}
		snap := h.Snapshot()
		if snap.Count != uint64(len(vals)) {
			t.Fatalf("%s: count %d != %d", name, snap.Count, len(vals))
		}
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
			exact := quantileExact(vals, q)
			est := snap.Quantile(q)
			if est < exact {
				t.Errorf("%s q%g: estimate %d below exact %d", name, q, est, exact)
			}
			// The estimate is the upper bound of the exact value's bucket
			// (or an adjacent tie), so it overshoots by at most one bucket
			// width: 1/histSub relative, +1 for the integer edge.
			limit := exact + exact/histSub + 1
			if est > limit {
				t.Errorf("%s q%g: estimate %d exceeds bound %d (exact %d)", name, q, est, limit, exact)
			}
		}
	}
}

// TestSnapshotMergeAssociative checks (a∪b)∪c == a∪(b∪c) bucket-wise,
// the property that makes per-shard and per-window merging order-free.
func TestSnapshotMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mk := func() HistSnapshot {
		h := NewHistogram()
		for i := 0; i < 5000; i++ {
			h.Observe(uint64(rng.Int63n(1 << uint(20+rng.Intn(20)))))
		}
		return h.Snapshot()
	}
	a, b, c := mk(), mk(), mk()
	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	if left.Count != right.Count || left.Sum != right.Sum {
		t.Fatalf("merge not associative: counts %d/%d sums %d/%d",
			left.Count, right.Count, left.Sum, right.Sum)
	}
	for i := range left.counts {
		if left.counts[i] != right.counts[i] {
			t.Fatalf("merge not associative at bucket %d: %d != %d", i, left.counts[i], right.counts[i])
		}
	}
	// Commutativity and identity ride along.
	ab, ba := a.Merge(b), b.Merge(a)
	for i := range ab.counts {
		if ab.counts[i] != ba.counts[i] {
			t.Fatalf("merge not commutative at bucket %d", i)
		}
	}
	if z := a.Merge(HistSnapshot{}); z.Count != a.Count || z.Sum != a.Sum {
		t.Fatal("merging the zero snapshot changed the histogram")
	}
	for _, q := range []float64{0.5, 0.99} {
		if left.Quantile(q) != right.Quantile(q) {
			t.Fatalf("quantile %g differs across merge orders", q)
		}
	}
}

// TestHistogramConcurrent checks observations are not lost under
// concurrent writers (run with -race for the memory-model half).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const goroutines, per = 8, 20000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < per; i++ {
				h.Observe(uint64(rng.Int63n(1e6)))
			}
		}(g)
	}
	wg.Wait()
	if got, want := h.Snapshot().Count, uint64(goroutines*per); got != want {
		t.Fatalf("histogram lost observations: got %d, want %d", got, want)
	}
}

// TestRegistry exercises get-or-create identity, label rendering, and
// the Prometheus exposition shape.
func TestRegistry(t *testing.T) {
	r := New()
	c1 := r.Counter("prio_test_total", "a counter", Label{"outcome", "ok"})
	c2 := r.Counter("prio_test_total", "a counter", Label{"outcome", "ok"})
	if c1 != c2 {
		t.Fatal("get-or-create returned distinct counters for identical series")
	}
	c1.Add(3)
	r.Counter("prio_test_total", "a counter", Label{"outcome", "bad"}).Add(1)
	r.Gauge("prio_test_depth", "a gauge").Set(7)
	r.CounterFunc("prio_test_func_total", "a counter func", func() uint64 { return 9 })
	d := r.Duration("prio_test_seconds", "a duration histogram")
	d.Observe(1500 * time.Microsecond)
	d.Observe(2 * time.Millisecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE prio_test_total counter",
		`prio_test_total{outcome="ok"} 3`,
		`prio_test_total{outcome="bad"} 1`,
		"prio_test_depth 7",
		"prio_test_func_total 9",
		"# TYPE prio_test_seconds histogram",
		`prio_test_seconds_bucket{le="+Inf"} 2`,
		"prio_test_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q in:\n%s", want, out)
		}
	}
	// Duration histograms export seconds: the sum of 1.5ms + 2ms.
	if !strings.Contains(out, "prio_test_seconds_sum 0.0035") {
		t.Errorf("duration sum not in seconds:\n%s", out)
	}

	snap := r.Snapshot()
	if snap[`prio_test_total{outcome="ok"}`] != uint64(3) {
		t.Errorf("expvar snapshot counter = %v", snap[`prio_test_total{outcome="ok"}`])
	}
	hist, ok := snap["prio_test_seconds"].(map[string]any)
	if !ok || hist["count"] != uint64(2) {
		t.Errorf("expvar snapshot histogram = %v", snap["prio_test_seconds"])
	}
}

// TestRegistryConcurrent races get-or-create against scraping.
func TestRegistryConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("prio_conc_total", "c", Label{"g", string(rune('a' + g%4))}).Inc()
				r.Duration("prio_conc_seconds", "d").Observe(time.Duration(i))
			}
		}(g)
	}
	for i := 0; i < 10; i++ {
		var b strings.Builder
		_ = r.WritePrometheus(&b)
		_ = r.Snapshot()
	}
	wg.Wait()
	var total uint64
	for _, g := range []string{"a", "b", "c", "d"} {
		total += r.Counter("prio_conc_total", "c", Label{"g", g}).Value()
	}
	if total != 8*200 {
		t.Fatalf("lost counts across label series: %d", total)
	}
}

// TestTracer checks sampling cadence, span bookkeeping, and ring
// eviction.
func TestTracer(t *testing.T) {
	tr := NewTracer(4, 8)
	var sampled int
	for i := 0; i < 64; i++ {
		s := tr.Sample()
		if s == nil {
			continue
		}
		sampled++
		s.Stage("ingest")
		s.Stage("verify")
		s.Finish("accepted")
	}
	if sampled != 16 {
		t.Fatalf("sampled %d of 64 at 1-in-4", sampled)
	}
	traces := tr.Snapshot()
	if len(traces) != 8 {
		t.Fatalf("ring holds %d traces, want capacity 8", len(traces))
	}
	for _, s := range traces {
		if s.Outcome != "accepted" || len(s.Spans) != 2 {
			t.Fatalf("trace %d: outcome %q spans %d", s.ID, s.Outcome, len(s.Spans))
		}
		if s.Spans[0].Stage != "ingest" || s.Spans[1].Stage != "verify" {
			t.Fatalf("trace %d: stages %v", s.ID, s.Spans)
		}
		if s.Spans[1].AtNS < s.Spans[0].AtNS {
			t.Fatalf("trace %d: spans out of order", s.ID)
		}
	}
	// Oldest-first ordering: IDs ascend.
	for i := 1; i < len(traces); i++ {
		if traces[i].ID <= traces[i-1].ID {
			t.Fatalf("ring not oldest-first: %d then %d", traces[i-1].ID, traces[i].ID)
		}
	}
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"outcome": "accepted"`) {
		t.Fatalf("trace JSON missing outcome: %s", b.String())
	}

	// Disabled and nil tracers never sample and dump empty arrays.
	if NewTracer(0, 8) != nil {
		t.Fatal("every=0 should return a nil tracer")
	}
	var none *Tracer
	if none.Sample() != nil {
		t.Fatal("nil tracer sampled")
	}
	b.Reset()
	if err := none.WriteJSON(&b); err != nil || !strings.Contains(b.String(), "[]") {
		t.Fatalf("nil tracer dump = %q, %v", b.String(), err)
	}
	var noTrace *Trace
	noTrace.Stage("x")
	noTrace.Finish("y")
}

// TestTracerConcurrent samples from many goroutines with handoffs
// (-race is the real assertion).
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(2, 32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := tr.Sample()
				s.Stage("a")
				done := make(chan struct{})
				go func() { // cross-goroutine handoff, as ingest → shard does
					s.Stage("b")
					s.Finish("ok")
					close(done)
				}()
				<-done
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Snapshot()); got != 32 {
		t.Fatalf("ring holds %d, want 32", got)
	}
}
